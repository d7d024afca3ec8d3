package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/phr"
	"typepre/internal/phr/diskstore"
)

// Corpus shape. Warm workloads use a small corpus whose every
// (patient, category) group holds a few records, far below the 1024-entry
// prepared-rekey cache of a grant. The cold workload gives each patient
// one category and grants it to every requester, and adds patients until
// each scheduled read has a pair nobody read before.
const (
	warmPatients      = 6
	warmRequesters    = 6
	warmReaders       = 3 // requesters granted each (patient, category)
	recordsPerPatient = 16
	coldRequesters    = 16
	churnKeys         = 8  // grants toward requesters no read uses
	putPoolSize       = 16 // sealed containers the puts upload under fresh IDs
	auditLimit        = 50 // page size of the audit tail requests
	putPatient        = "ingest@phr.example"
)

// pair is one single-record disclosure target.
type pair struct {
	rec       *phr.EncryptedRecord
	requester string
}

// triple is one category-stream target and the records it must deliver,
// in insertion order.
type triple struct {
	patient   string
	category  phr.Category
	requester string
	recs      []*phr.EncryptedRecord
}

// grantID names an installed read grant.
type grantID struct {
	patient   string
	category  phr.Category
	requester string
}

// churnKey is a rekey toward a requester no read uses, installed and
// revoked over HTTP by the grant churn. Ops on one key run in schedule
// order: the n-th op on a key waits until the ones before it completed.
type churnKey struct {
	rk     *core.ReKey
	record string // a record of the key's (patient, category)

	mu        sync.Mutex
	cond      *sync.Cond
	done      int  // ops on this key completed so far
	installed bool // state after the last completed op
}

// corpus is one fully set-up deployment: the generated workload, its
// grants, the server in front of it and the inputs the requests draw on.
type corpus struct {
	w          *phr.Workload
	disk       *diskstore.Store // nil on the memory store
	dir        string
	patients   map[string]*phr.Patient
	rekeys     map[grantID]*core.ReKey
	pairs      []pair
	triples    []triple
	categories []phr.Category
	putPool    []phr.EncryptedRecord // uploaded under a fresh ID each
	churn      []*churnKey

	srv       *http.Server
	served    chan error
	base      string
	transport *http.Transport
}

// newCorpus generates the seeded corpus, seals its records, mints its
// grants, starts the HTTP server on loopback and warms what a long-running
// deployment would have warm. Everything it does counts toward setup_s.
func newCorpus(sp spec, seed int64, counts [numOps]int, tr *tracer, dataDir string) (c *corpus, err error) {
	c = &corpus{patients: map[string]*phr.Patient{}, rekeys: map[grantID]*core.ReKey{}}
	defer func() {
		if err != nil {
			c.close()
		}
	}()

	cfg := phr.WorkloadConfig{
		Seed:                  seed,
		Patients:              warmPatients,
		Requesters:            warmRequesters,
		Categories:            []phr.Category{phr.CategoryIllnessHistory, phr.CategoryFoodStatistics, phr.CategoryEmergency},
		RecordsPerPatient:     recordsPerPatient,
		BodySize:              sp.bodySize,
		InsecureDeterministic: true,
	}
	readers := warmReaders
	var singlePatients int
	if sp.cold {
		// One category per patient: each patient is one stream group of
		// recordsPerPatient records, readable by every requester.
		cfg.Categories = []phr.Category{phr.CategoryEmergency}
		cfg.Requesters = coldRequesters
		readers = coldRequesters
		pairsPerPatient := recordsPerPatient * coldRequesters
		singlePatients = (counts[opDisclose] + pairsPerPatient - 1) / pairsPerPatient
		cfg.Patients = singlePatients + (counts[opStream]+coldRequesters-1)/coldRequesters
	}
	c.categories = cfg.Categories

	var backend phr.Backend = phr.NewStore()
	if sp.disk {
		c.dir = dataDir
		// Interval fsync (every 100 ms, in the background): with an fsync
		// per put, put and read latencies tracked the host disk's fsync
		// time, which moved 2x between runs minutes apart.
		if c.disk, err = diskstore.Open(c.dir, diskstore.Options{Fsync: diskstore.FsyncInterval}); err != nil {
			return c, err
		}
		backend = c.disk
	}
	if tr != nil {
		backend = &tracedBackend{Backend: backend, tr: tr}
	}
	cfg.Backend = backend

	src := rand.NewSource(seed)
	if c.w, err = phr.GenerateWorkloadFrom(cfg, src); err != nil {
		return c, fmt.Errorf("generate workload: %w", err)
	}
	// The grants, churn keys and put pool draw from the same seeded
	// source, so the whole corpus is a function of the seed.
	rng := rand.New(src)
	requesters := make([]string, cfg.Requesters)
	for i := range requesters {
		requesters[i] = fmt.Sprintf("clinician-%03d@clinic.example", i)
	}
	groups := map[grantID][]*phr.EncryptedRecord{}
	var order []grantID // groups in first-record order
	for _, rec := range c.w.Records {
		g := grantID{patient: rec.PatientID, category: rec.Category}
		if groups[g] == nil {
			order = append(order, g)
		}
		groups[g] = append(groups[g], rec)
	}
	for _, p := range c.w.Patients {
		c.patients[p.ID()] = p
	}

	for gi, g := range order {
		p := c.patients[g.patient]
		proxy, err := c.w.Service.ProxyFor(g.category)
		if err != nil {
			return c, err
		}
		for _, ri := range rng.Perm(len(requesters))[:readers] {
			id := grantID{g.patient, g.category, requesters[ri]}
			rk, err := p.Delegator().Delegate(c.w.KGC2.Params(), id.requester, core.Type(g.category), rng)
			if err != nil {
				return c, fmt.Errorf("mint grant: %w", err)
			}
			if err := proxy.Install(rk); err != nil {
				return c, fmt.Errorf("install grant: %w", err)
			}
			c.rekeys[id] = rk
			t := triple{patient: g.patient, category: g.category, requester: id.requester, recs: groups[g]}
			if sp.cold && gi < singlePatients {
				for _, rec := range t.recs {
					c.pairs = append(c.pairs, pair{rec, id.requester})
				}
				continue
			}
			c.triples = append(c.triples, t)
			if !sp.cold {
				for _, rec := range t.recs {
					c.pairs = append(c.pairs, pair{rec, id.requester})
				}
			}
		}
	}
	if sp.cold {
		rng.Shuffle(len(c.pairs), func(i, j int) { c.pairs[i], c.pairs[j] = c.pairs[j], c.pairs[i] })
		rng.Shuffle(len(c.triples), func(i, j int) { c.triples[i], c.triples[j] = c.triples[j], c.triples[i] })
	}

	for i := 0; i < churnKeys; i++ {
		g := order[i%len(order)]
		requester := fmt.Sprintf("churn-%03d@clinic.example", i)
		rk, err := c.patients[g.patient].Delegator().Delegate(c.w.KGC2.Params(), requester, core.Type(g.category), rng)
		if err != nil {
			return c, fmt.Errorf("mint churn grant: %w", err)
		}
		k := &churnKey{rk: rk, record: groups[g][0].ID}
		k.cond = sync.NewCond(&k.mu)
		c.churn = append(c.churn, k)
	}

	ingest := phr.NewPatient(c.w.KGC1, putPatient)
	body := make([]byte, sp.bodySize)
	for i := 0; i < putPoolSize; i++ {
		cat := c.categories[i%len(c.categories)]
		rng.Read(body)
		sealed, err := hybrid.Encrypt(ingest.Delegator(), body, core.Type(cat), rng)
		if err != nil {
			return c, fmt.Errorf("seal put container: %w", err)
		}
		c.putPool = append(c.putPool, phr.EncryptedRecord{PatientID: putPatient, Category: cat, Sealed: sealed})
	}

	if err := c.serve(tr); err != nil {
		return c, err
	}
	return c, c.warm(sp.cold)
}

// serve starts the §5 HTTP API on a loopback port.
func (c *corpus) serve(tr *tracer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = phr.NewServer(c.w.Service)
	if tr != nil {
		h = &tracedHandler{next: h, tr: tr}
	}
	c.srv = &http.Server{Handler: h}
	c.served = make(chan error, 1)
	go func() { c.served <- c.srv.Serve(ln) }()
	c.base = "http://" + ln.Addr().String()
	c.transport = &http.Transport{
		MaxIdleConnsPerHost: maxInFlight,
		MaxConnsPerHost:     maxInFlight,
		DisableCompression:  true,
	}
	return nil
}

// warm opens the generator's connections and, on warm workloads, discloses
// every pair and streams every triple once so that each timed
// re-encryption is a cache hit. The cold workload only opens connections:
// warming its pairs would defeat it.
func (c *corpus) warm(cold bool) error {
	var jobs []func(*phr.Client) error
	for _, cat := range c.categories {
		jobs = append(jobs, func(cl *phr.Client) error {
			_, err := getAudit(cl, cat, 1)
			return err
		})
	}
	if !cold {
		for _, p := range c.pairs {
			jobs = append(jobs, func(cl *phr.Client) error {
				_, err := cl.Disclose(p.rec.ID, p.requester)
				return err
			})
		}
		for _, t := range c.triples {
			jobs = append(jobs, func(cl *phr.Client) error {
				_, err := cl.DiscloseCategory(t.patient, t.category, t.requester)
				return err
			})
		}
	}
	errs := make([]error, maxInFlight)
	var wg sync.WaitGroup
	for w := range maxInFlight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := c.client(nil)
			for i := w; i < len(jobs); i += maxInFlight {
				if err := jobs[i](cl); err != nil {
					errs[w] = fmt.Errorf("warm-up: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// client returns a phr.Client on the shared transport. With a tag, every
// request carries the tag's request ID for the tracer.
func (c *corpus) client(tag *reqTag) *phr.Client {
	var rt http.RoundTripper = c.transport
	if tag != nil {
		rt = &taggingTransport{next: c.transport, tag: tag}
	}
	return &phr.Client{Base: c.base, HTTP: &http.Client{Transport: rt}}
}

// storeKey names the record or stream a request makes the store touch,
// as the traced backend records it.
func (c *corpus) storeKey(r request) string {
	switch r.op {
	case opDisclose:
		return c.pairs[r.target].rec.ID
	case opStream:
		t := c.triples[r.target]
		return streamKey(t.patient, t.category)
	case opPut:
		return putID(r.target)
	}
	return ""
}

// stopServer shuts the HTTP server down and waits until it has stopped.
func (c *corpus) stopServer() error {
	if c.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := c.srv.Shutdown(ctx)
	if serveErr := <-c.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	c.transport.CloseIdleConnections()
	c.srv = nil
	return err
}

// close releases everything the corpus holds, removing its data
// directory.
func (c *corpus) close() error {
	err := c.stopServer()
	if c.disk != nil {
		err = errors.Join(err, c.disk.Close())
		c.disk = nil
	}
	if c.dir != "" {
		err = errors.Join(err, os.RemoveAll(c.dir))
	}
	return err
}

// dataDir is where setup number n of this process keeps its diskstore.
func dataDir(out string, n int) string {
	return filepath.Join(out, fmt.Sprintf("data-%d-%d", os.Getpid(), n))
}
