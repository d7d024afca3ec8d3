package phr

import (
	"errors"
	"fmt"
	"sync"

	"typepre/internal/core"
	"typepre/internal/hybrid"
)

// Proxy errors.
var (
	ErrNoGrant = errors.New("phr: no re-encryption grant for this request")
	// ErrStaleGrant marks a grant that predates the category's key
	// rotation: it is still installed, but the records have been re-sealed
	// under a newer type epoch and the rekey can no longer transform them.
	ErrStaleGrant = errors.New("phr: grant predates the category's key rotation")
	// ErrBreakGlassReason is returned when the break-glass path is invoked
	// without a reason; the audited reason is mandatory.
	ErrBreakGlassReason = errors.New("phr: break-glass access requires a reason")
)

// grantKey identifies one installed delegation by its *logical* category:
// a rotation-epoch rekey for "emergency#e2" is keyed under "emergency", so
// re-granting after a rotation replaces the stale grant instead of
// accumulating one entry per epoch.
type grantKey struct {
	patient   string
	category  Category
	requester string
}

// Proxy is a re-encryption proxy server (§5: the patient picks one proxy
// per category "according to trust"). It holds the re-encryption keys
// installed by patients and transforms sealed records on request. It never
// sees plaintext: a proxy key lets it re-encrypt, not decrypt.
type Proxy struct {
	name  string
	audit *AuditLog

	mu     sync.RWMutex
	grants map[grantKey]*core.PreparedReKey // phrlint:guardedby mu
}

// NewProxy creates a proxy with its own audit log.
func NewProxy(name string) *Proxy {
	return &Proxy{name: name, audit: NewAuditLog(), grants: map[grantKey]*core.PreparedReKey{}}
}

// Name returns the proxy's deployment name.
func (p *Proxy) Name() string { return p.name }

// Audit exposes the proxy's audit log.
func (p *Proxy) Audit() *AuditLog { return p.audit }

// Install registers a re-encryption grant, preparing it for reuse across
// requests. The rekey's own metadata determines the (patient, category,
// requester) triple, so a mislabeled installation is impossible. A rekey
// for a newer rotation epoch of the same logical category replaces the
// stale grant (and its prepared pairing cache) outright.
func (p *Proxy) Install(rk *core.ReKey) error {
	if rk == nil || rk.RK == nil {
		return fmt.Errorf("phr: invalid rekey")
	}
	k := grantKey{rk.DelegatorID, BaseCategory(rk.Type), rk.DelegateeID}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.grants[k] = core.PrepareReKey(rk)
	return nil
}

// Revoke removes a grant. Returns ErrNoGrant when absent. Removal drops
// the prepared rekey — and with it the cached pairing adjustments — so a
// revoked pair cannot be served from any warm cache, and any in-flight
// streaming disclosure for the pair terminates before its next record.
func (p *Proxy) Revoke(patientID string, c Category, requester string) error {
	k := grantKey{patientID, c, requester}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.grants[k]; !ok {
		return ErrNoGrant
	}
	delete(p.grants, k)
	return nil
}

// GrantCount returns the number of installed grants.
func (p *Proxy) GrantCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.grants)
}

// lookup finds the prepared grant for a request.
func (p *Proxy) lookup(patientID string, c Category, requester string) (*core.PreparedReKey, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	rk, ok := p.grants[grantKey{patientID, c, requester}]
	return rk, ok
}

// staleErr builds the denial for a grant whose epoch no longer matches the
// stored records.
func staleErr(patientID string, c Category, requester string, grantType, sealedType core.Type) error {
	return fmt.Errorf("%w: %s/%s for %s (grant epoch %q, records sealed as %q)",
		ErrStaleGrant, patientID, c, requester, grantType, sealedType)
}

// Disclose fetches a record from the store and re-encrypts it toward the
// requester, enforcing the grant table and writing an audit entry either
// way. This is the §5 on-demand disclosure path.
func (p *Proxy) Disclose(store Backend, recordID, requester string) (*hybrid.ReCiphertext, error) {
	rec, err := store.Get(recordID)
	if err != nil {
		p.audit.Append(AuditEntry{
			Proxy: p.name, RecordID: recordID, Requester: requester,
			Outcome: OutcomeNotFound,
		})
		return nil, err
	}
	rk, ok := p.lookup(rec.PatientID, rec.Category, requester)
	if !ok {
		p.audit.Append(AuditEntry{
			Proxy: p.name, PatientID: rec.PatientID, RecordID: recordID,
			Category: rec.Category, Requester: requester, Outcome: OutcomeNoGrant,
		})
		return nil, fmt.Errorf("%w: %s/%s for %s", ErrNoGrant, rec.PatientID, rec.Category, requester)
	}
	if rk.ReKey().Type != rec.Sealed.KEM.Type {
		p.audit.Append(AuditEntry{
			Proxy: p.name, PatientID: rec.PatientID, RecordID: recordID,
			Category: rec.Category, Requester: requester, Outcome: OutcomeStaleGrant,
		})
		return nil, staleErr(rec.PatientID, rec.Category, requester, rk.ReKey().Type, rec.Sealed.KEM.Type)
	}
	rct, err := hybrid.ReEncryptPrepared(rec.Sealed, rk)
	if err != nil {
		p.audit.Append(AuditEntry{
			Proxy: p.name, PatientID: rec.PatientID, RecordID: recordID,
			Category: rec.Category, Requester: requester, Outcome: OutcomeError,
		})
		return nil, err
	}
	p.audit.Append(AuditEntry{
		Proxy: p.name, PatientID: rec.PatientID, RecordID: recordID,
		Category: rec.Category, Requester: requester, Outcome: OutcomeGranted,
	})
	return rct, nil
}

// DiscloseCategory re-encrypts every record of (patient, category) toward
// the requester — the bulk path used in emergencies (§5: "the PHR data can
// be disclosed on demand by the proxy"). It is DiscloseCategoryStream
// collected into a slice: insertion order, re-encryption spread across the
// worker pool.
func (p *Proxy) DiscloseCategory(store Backend, patientID string, c Category, requester string) ([]*hybrid.ReCiphertext, error) {
	var out []*hybrid.ReCiphertext
	err := p.DiscloseCategoryStream(store, patientID, c, requester, func(rct *hybrid.ReCiphertext) error {
		out = append(out, rct)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DiscloseCategoryStream is the streaming bulk-disclosure path: it checks
// the grant once, fans re-encryption of the patient's records across a
// bounded worker pool (hybrid.ReEncryptStream, sized by GOMAXPROCS,
// sharing the prepared grant's pairing cache), and calls yield once per
// record in insertion order as results complete. Memory stays bounded by
// the pool size, not the record count, so the HTTP layer can stream frames
// to the wire as they are produced.
//
// Revocation wins over an in-flight stream: before each record is
// released, the grant is re-checked, and a pair revoked (or re-keyed)
// mid-stream stops the stream with ErrNoGrant before the next record
// leaves the proxy.
//
// Audit semantics match Disclose: one granted entry per disclosed record;
// a denial or a failed transformation is audited once.
func (p *Proxy) DiscloseCategoryStream(store Backend, patientID string, c Category, requester string, yield func(*hybrid.ReCiphertext) error) error {
	return p.discloseCategoryStream(store, patientID, c, requester, OutcomeGranted, "", yield)
}

// discloseCategoryStream is the shared bulk-disclosure engine; outcome and
// note parameterize how each released record is audited (OutcomeGranted
// for the regular path, OutcomeBreakGlass plus the mandatory reason for
// emergency access).
func (p *Proxy) discloseCategoryStream(store Backend, patientID string, c Category, requester string, outcome Outcome, note string, yield func(*hybrid.ReCiphertext) error) error {
	rk, ok := p.lookup(patientID, c, requester)
	if !ok {
		p.audit.Append(AuditEntry{
			Proxy: p.name, PatientID: patientID, Category: c,
			Requester: requester, Outcome: OutcomeNoGrant, Note: note,
		})
		return fmt.Errorf("%w: %s/%s for %s", ErrNoGrant, patientID, c, requester)
	}
	recs, err := store.ListByPatientCategory(patientID, c)
	if err != nil {
		p.audit.Append(AuditEntry{
			Proxy: p.name, PatientID: patientID, Category: c,
			Requester: requester, Outcome: OutcomeError, Note: note,
		})
		return err
	}
	grantType := rk.ReKey().Type
	for _, rec := range recs {
		if rec.Sealed.KEM.Type != grantType {
			p.audit.Append(AuditEntry{
				Proxy: p.name, PatientID: patientID, RecordID: rec.ID,
				Category: c, Requester: requester, Outcome: OutcomeStaleGrant, Note: note,
			})
			return staleErr(patientID, c, requester, grantType, rec.Sealed.KEM.Type)
		}
	}
	cts := make([]*hybrid.Ciphertext, len(recs))
	for i, rec := range recs {
		cts[i] = rec.Sealed
	}
	next := 0
	var yieldErr error // consumer rejection, not a transformation failure
	revoked := false
	err = hybrid.ReEncryptStream(cts, rk, 0, func(rct *hybrid.ReCiphertext) error {
		rec := recs[next]
		next++
		// Re-check liveness before the record leaves the proxy: a revoked
		// pair — or one re-keyed to a fresh grant — must not keep being
		// served from the snapshot this stream started with.
		if cur, live := p.lookup(patientID, c, requester); !live || cur != rk {
			revoked = true
			return fmt.Errorf("%w: %s/%s for %s (revoked mid-stream)", ErrNoGrant, patientID, c, requester)
		}
		if e := yield(rct); e != nil {
			yieldErr = e
			return e
		}
		// Audit after delivery, so the log records what actually left the
		// proxy: a record whose frame never reached the consumer is not
		// logged as disclosed.
		p.audit.Append(AuditEntry{
			Proxy: p.name, PatientID: rec.PatientID, RecordID: rec.ID,
			Category: rec.Category, Requester: requester, Outcome: outcome, Note: note,
		})
		return nil
	})
	// A mid-stream revocation is audited as the denial it is; only a
	// re-encryption failure is a proxy error; a consumer that stops the
	// stream (client disconnect, cancel) has every delivered record
	// audited already.
	switch {
	case revoked:
		p.audit.Append(AuditEntry{
			Proxy: p.name, PatientID: patientID, Category: c,
			Requester: requester, Outcome: OutcomeNoGrant, Note: note,
		})
	case err != nil && yieldErr == nil:
		p.audit.Append(AuditEntry{
			Proxy: p.name, PatientID: patientID, Category: c,
			Requester: requester, Outcome: OutcomeError, Note: note,
		})
	}
	return err
}

// BreakGlass is the emergency-access bulk disclosure path: identical
// cryptographic enforcement to DiscloseCategoryStream — break-glass does
// not bypass the grant table, it uses a pre-authorized emergency grant —
// but every released record is audited with the distinguishable
// OutcomeBreakGlass and the mandatory reason, and denials carry the reason
// too, so an emergency access can never hide among routine disclosures.
func (p *Proxy) BreakGlass(store Backend, patientID string, c Category, requester, reason string, yield func(*hybrid.ReCiphertext) error) error {
	if reason == "" {
		return ErrBreakGlassReason
	}
	return p.discloseCategoryStream(store, patientID, c, requester, OutcomeBreakGlass, reason, yield)
}

// CompromisedGrants models a corrupted proxy: the attacker walks away with
// every installed rekey. Used by the E6 blast-radius experiment.
func (p *Proxy) CompromisedGrants() []*core.ReKey {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*core.ReKey, 0, len(p.grants))
	for _, rk := range p.grants {
		out = append(out, rk.ReKey())
	}
	return out
}
