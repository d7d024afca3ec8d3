package phr

import (
	"errors"
	"fmt"
	"sync"

	"typepre/internal/hybrid"
	"typepre/internal/ibe"
)

// Service errors.
var (
	ErrNoProxy = errors.New("phr: no proxy deployed for this category")
)

// Service is the complete §5 deployment: one semi-trusted store, one proxy
// per category (the paper's recommended topology — compromise of one proxy
// must not cross category boundaries), and the KGC2 domain requesters are
// registered at.
type Service struct {
	// Store is the pluggable storage layer holding the sealed records:
	// the in-memory backend by default, the crash-safe disk backend in a
	// persistent deployment (cmd/phrserver -store=disk).
	Store Backend

	mu      sync.RWMutex
	proxies map[Category]*Proxy // phrlint:guardedby mu
}

// NewService creates a service with one dedicated proxy per category,
// backed by the in-memory store.
func NewService(categories []Category) *Service {
	return NewServiceWith(categories, NewStore())
}

// NewServiceWith creates a service over an explicit storage backend.
func NewServiceWith(categories []Category, backend Backend) *Service {
	// The proxy map is fully built before the Service is constructed, so
	// no partially-initialized Service is ever reachable and every access
	// through s.proxies happens under s.mu.
	proxies := map[Category]*Proxy{}
	for _, c := range categories {
		proxies[c] = NewProxy("proxy-" + string(c))
	}
	return &Service{Store: backend, proxies: proxies}
}

// ProxyFor returns the proxy serving a category.
func (s *Service) ProxyFor(c Category) (*Proxy, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.proxies[c]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoProxy, c)
	}
	return p, nil
}

// DeployProxy installs (or replaces) the proxy for a category — §5's
// dynamic scenario where Alice, traveling to the US, stands up a local
// emergency proxy.
func (s *Service) DeployProxy(c Category, p *Proxy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.proxies[c] = p
}

// Proxies returns the deployed proxies keyed by category (copy).
func (s *Service) Proxies() map[Category]*Proxy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Category]*Proxy, len(s.proxies))
	for c, p := range s.proxies {
		out[c] = p
	}
	return out
}

// Grant routes a patient's delegation to the category's proxy.
func (s *Service) Grant(p *Patient, requesterParams *ibe.Params, requesterID string, c Category) error {
	proxy, err := s.ProxyFor(c)
	if err != nil {
		return err
	}
	return p.Grant(proxy, requesterParams, requesterID, c, nil)
}

// Request performs the full disclosure flow for one record: route to the
// category proxy, re-encrypt, and return the transformed ciphertext. The
// requester decrypts locally with their own key (the service never holds
// requester keys).
func (s *Service) Request(recordID, requesterID string) (*hybrid.ReCiphertext, error) {
	rec, err := s.Store.Get(recordID)
	if err != nil {
		return nil, err
	}
	proxy, err := s.ProxyFor(rec.Category)
	if err != nil {
		return nil, err
	}
	return proxy.Disclose(s.Store, recordID, requesterID)
}

// Read is the requester-side convenience wrapper: request + decrypt.
func (s *Service) Read(recordID string, requester *ibe.PrivateKey) ([]byte, error) {
	rct, err := s.Request(recordID, requester.ID)
	if err != nil {
		return nil, err
	}
	return hybrid.DecryptReEncrypted(requester, rct)
}

// BreakGlass performs emergency disclosure of a patient's
// CategoryEmergency records toward a pre-authorized responder. It is the
// same cryptographic path as any bulk disclosure — the responder must hold
// a standing emergency grant; break-glass cannot conjure access the
// patient never delegated — but every record released is audited with the
// distinguishable OutcomeBreakGlass and the mandatory reason, and a denied
// attempt is audited with the reason too.
func (s *Service) BreakGlass(patientID, requesterID, reason string) ([]*hybrid.ReCiphertext, error) {
	proxy, err := s.ProxyFor(CategoryEmergency)
	if err != nil {
		return nil, err
	}
	var out []*hybrid.ReCiphertext
	err = proxy.BreakGlass(s.Store, patientID, CategoryEmergency, requesterID, reason, func(rct *hybrid.ReCiphertext) error {
		out = append(out, rct)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadCategory requests and decrypts every record of (patient, category).
// Re-encryption runs on the worker-pool bulk path; results keep insertion
// order.
func (s *Service) ReadCategory(patientID string, c Category, requester *ibe.PrivateKey) ([][]byte, error) {
	proxy, err := s.ProxyFor(c)
	if err != nil {
		return nil, err
	}
	rcts, err := proxy.DiscloseCategory(s.Store, patientID, c, requester.ID)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, len(rcts))
	for _, rct := range rcts {
		body, err := hybrid.DecryptReEncrypted(requester, rct)
		if err != nil {
			return nil, err
		}
		out = append(out, body)
	}
	return out, nil
}
