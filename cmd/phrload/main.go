// Command phrload is the service-level load harness for the PHR disclosure
// service: it drives a phrserver (live over -addr, or an in-process
// httptest instance with -selftest) with a mixed operation profile drawn
// from a phr.GenerateWorkload corpus, and reports sustained RPS and
// latency quantiles per endpoint from internal/loadstat.
//
// The harness writes BENCH_phrload.json (schema "phrload/1"): git
// revision, the full load configuration, and per-endpoint metrics for each
// run, so successive changes can compare service-level numbers
// file-to-file.
//
// See docs/loadtest.md for flags, the JSON schema, and the repeatable
// command that produced the committed BENCH_phrload.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/loadstat"
	"typepre/internal/phr"
	"typepre/internal/phr/diskstore"
)

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

// loadConfig gathers every knob; the smoke test builds one directly.
type loadConfig struct {
	Addr     string // base URL of a running phrserver; empty with Selftest
	Selftest bool   // run against an in-process httptest server

	// Store selects the backend of in-process servers: "mem", "disk" (a
	// throwaway diskstore directory, fsync=interval), or "both" (one run
	// per backend; -selftest only). Remote servers pick their own store.
	Store string

	// Spotcheck verifies a restarted -addr server instead of load-testing
	// it: the deterministic corpus is regenerated, grants are re-installed,
	// and every disclosable record is disclosed and decrypted against the
	// known plaintext. MinRecords additionally gates on the server's
	// store_records metric.
	Spotcheck  bool
	MinRecords int

	Duration    time.Duration
	Concurrency int

	Patients   int
	Records    int // records per patient
	Requesters int
	Grants     int // grants per patient
	Body       int // record body bytes
	Seed       int64

	Mix string // e.g. "put=2,disclose=6,stream=3,grant=1,revoke=1,audit=2"

	Out string
	Rev string
}

func defaultConfig() loadConfig {
	return loadConfig{
		Duration:    10 * time.Second,
		Concurrency: 8,
		Patients:    6,
		Records:     8,
		Requesters:  4,
		Grants:      3,
		Body:        256,
		Seed:        1,
		Mix:         "put=2,disclose=6,stream=3,grant=1,revoke=1,audit=2",
		Store:       "mem",
		Out:         "BENCH_phrload.json",
	}
}

// Operation names accepted in -mix, mapped to the endpoint labels the
// server itself uses, so client-side and server-side metrics line up.
var opEndpoints = map[string]string{
	"put":      phr.EndpointPut,
	"disclose": phr.EndpointDisclose,
	"stream":   phr.EndpointStream,
	"grant":    phr.EndpointGrant,
	"revoke":   phr.EndpointRevoke,
	"audit":    phr.EndpointAudit,
}

// opMix is a weighted operation profile: ops[i] is chosen with
// probability weights[i]/total.
type opMix struct {
	ops     []string
	weights []int
	total   int
}

func parseMix(s string) (*opMix, error) {
	m := &opMix{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("phrload: -mix entry %q is not name=weight", part)
		}
		if _, known := opEndpoints[name]; !known {
			return nil, fmt.Errorf("phrload: unknown op %q in -mix (have put, disclose, stream, grant, revoke, audit)", name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("phrload: bad weight in -mix entry %q", part)
		}
		if w == 0 {
			continue
		}
		m.ops = append(m.ops, name)
		m.weights = append(m.weights, w)
		m.total += w
	}
	if m.total == 0 {
		return nil, fmt.Errorf("phrload: -mix %q selects no operations", s)
	}
	return m, nil
}

func (m *opMix) pick(rng *rand.Rand) string {
	n := rng.Intn(m.total)
	for i, w := range m.weights {
		if n < w {
			return m.ops[i]
		}
		n -= w
	}
	return m.ops[len(m.ops)-1]
}

// ---------------------------------------------------------------------------
// BENCH_phrload.json schema ("phrload/1")
// ---------------------------------------------------------------------------

const benchSchema = "phrload/1"

type benchFile struct {
	Schema    string      `json:"schema"`
	Rev       string      `json:"rev"`
	Generated string      `json:"generated"`
	Config    benchConfig `json:"config"`
	Runs      []runResult `json:"runs"`
}

type benchConfig struct {
	Mode              string  `json:"mode"` // "selftest" or "remote"
	DurationS         float64 `json:"duration_s"`
	Concurrency       int     `json:"concurrency"`
	Patients          int     `json:"patients"`
	RecordsPerPatient int     `json:"records_per_patient"`
	Requesters        int     `json:"requesters"`
	GrantsPerPatient  int     `json:"grants_per_patient"`
	BodyBytes         int     `json:"body_bytes"`
	Seed              int64   `json:"seed"`
	Mix               string  `json:"mix"`
	Store             string  `json:"store,omitempty"`
}

type runResult struct {
	Label       string                   `json:"label"`
	ElapsedS    float64                  `json:"elapsed_s"`
	TotalOps    uint64                   `json:"total_ops"`
	Endpoints   []loadstat.EndpointStats `json:"endpoints"`
	Server      *phr.ServerMetrics       `json:"server,omitempty"`
	FirstErrors map[string]string        `json:"first_errors,omitempty"`
}

func (r *runResult) endpoint(name string) *loadstat.EndpointStats {
	for i := range r.Endpoints {
		if r.Endpoints[i].Endpoint == name {
			return &r.Endpoints[i]
		}
	}
	return nil
}

// checkBench validates a BENCH_phrload.json byte-for-byte as CI's -check
// gate does: schema tag, at least one run, the core endpoints exercised
// with non-zero throughput, and monotone quantiles.
func checkBench(data []byte) error {
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("phrload: malformed JSON: %w", err)
	}
	if bf.Schema != benchSchema {
		return fmt.Errorf("phrload: schema %q, want %q", bf.Schema, benchSchema)
	}
	if len(bf.Runs) == 0 {
		return fmt.Errorf("phrload: no runs recorded")
	}
	required := []string{phr.EndpointPut, phr.EndpointDisclose, phr.EndpointStream}
	for _, run := range bf.Runs {
		for _, name := range required {
			ep := run.endpoint(name)
			if ep == nil {
				return fmt.Errorf("phrload: run %q has no %q endpoint", run.Label, name)
			}
			if ep.Ops == 0 || ep.RPS <= 0 {
				return fmt.Errorf("phrload: run %q endpoint %q recorded no throughput", run.Label, name)
			}
		}
		for _, ep := range run.Endpoints {
			if ep.P50Us > ep.P95Us || ep.P95Us > ep.P99Us || ep.P99Us > ep.MaxUs {
				return fmt.Errorf("phrload: run %q endpoint %q has non-monotone quantiles", run.Label, ep.Endpoint)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

// pass is one measured load run against one server instance.
type pass struct {
	cfg    loadConfig
	mix    *opMix
	label  string
	client *phr.Client

	w *phr.Workload
	// disclosable (record, requester) pairs: records whose (patient,
	// category) carries an installed grant toward the requester.
	pairs []disclosePair
	// streamable (patient, category, requester) triples — the workload's
	// grants verbatim.
	streams []phr.Grant
	// churn rekeys, one per worker, toward requesters no disclose pair
	// uses, so install/revoke traffic never 403s the read ops.
	churn []*churnGrant

	collector *loadstat.Collector
	nonce     string

	errMu  sync.Mutex
	errors map[string]string
}

type disclosePair struct{ recordID, requester string }

type churnGrant struct {
	patient   string
	category  phr.Category
	requester string
	rekey     *core.ReKey
	installed bool
}

func newPass(cfg loadConfig, mix *opMix, label, base string, w *phr.Workload) (*pass, error) {
	p := &pass{
		cfg:   cfg,
		mix:   mix,
		label: label,
		client: &phr.Client{Base: base, HTTP: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        2 * cfg.Concurrency,
			MaxIdleConnsPerHost: 2 * cfg.Concurrency,
		}}},
		w:         w,
		streams:   w.Grants,
		collector: loadstat.NewCollector(),
		nonce:     fmt.Sprintf("%x", time.Now().UnixNano()),
		errors:    map[string]string{},
	}

	granted := map[phr.Grant]bool{}
	byPC := map[string][]string{}
	for _, g := range w.Grants {
		granted[g] = true
		k := g.PatientID + "\x00" + string(g.Category)
		byPC[k] = append(byPC[k], g.RequesterID)
	}
	for _, rec := range w.Records {
		for _, req := range byPC[rec.PatientID+"\x00"+string(rec.Category)] {
			p.pairs = append(p.pairs, disclosePair{rec.ID, req})
		}
	}
	if len(p.pairs) == 0 || len(p.streams) == 0 {
		return nil, fmt.Errorf("phrload: workload produced no disclosable records; raise -grants or -records")
	}

	for i := 0; i < cfg.Concurrency; i++ {
		pat := w.Patients[i%len(w.Patients)]
		c := w.Config.Categories[i%len(w.Config.Categories)]
		req := fmt.Sprintf("churn-%03d@clinic.example", i)
		rk, err := pat.Delegator().Delegate(w.KGC2.Params(), req,
			core.VersionedType(core.Type(c), pat.Epoch(c)), nil)
		if err != nil {
			return nil, fmt.Errorf("phrload: minting churn rekey: %w", err)
		}
		p.churn = append(p.churn, &churnGrant{
			patient: pat.ID(), category: c, requester: req, rekey: rk,
		})
	}
	return p, nil
}

// upload pushes the generated corpus into a remote server through the
// public API: every sealed record, and a freshly minted rekey per grant
// (the workload installed its grants into the local in-process proxies,
// which a remote server never sees).
func (p *pass) upload() error {
	for _, rec := range p.w.Records {
		if err := p.client.PutRecord(rec); err != nil {
			return fmt.Errorf("phrload: uploading %s: %w", rec.ID, err)
		}
	}
	patients := map[string]*phr.Patient{}
	for _, pat := range p.w.Patients {
		patients[pat.ID()] = pat
	}
	for _, g := range p.w.Grants {
		pat := patients[g.PatientID]
		rk, err := pat.Delegator().Delegate(p.w.KGC2.Params(), g.RequesterID,
			core.VersionedType(core.Type(g.Category), pat.Epoch(g.Category)), nil)
		if err != nil {
			return err
		}
		if err := p.client.InstallGrant(rk); err != nil {
			return fmt.Errorf("phrload: installing grant %v: %w", g, err)
		}
	}
	return nil
}

func (p *pass) noteError(endpoint string, err error) {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	if _, seen := p.errors[endpoint]; !seen {
		p.errors[endpoint] = err.Error()
	}
}

// worker runs the op loop until the deadline. Worker index selects the
// churn grant; the per-worker rng keeps op choice contention-free.
func (p *pass) worker(wi int, deadline time.Time) {
	rng := rand.New(rand.NewSource(p.cfg.Seed*1009 + int64(wi)))
	cg := p.churn[wi]
	var seq int
	for time.Now().Before(deadline) {
		op := p.mix.pick(rng)
		// A revoke with nothing installed would be a guaranteed 404;
		// reclassify it as the install that must precede it. Equal mix
		// weights make the pair alternate naturally.
		if op == "revoke" && !cg.installed {
			op = "grant"
		}
		endpoint := opEndpoints[op]
		begin := time.Now()
		err := p.doOp(op, wi, &seq, rng, cg)
		p.collector.Endpoint(endpoint).Record(time.Since(begin), err != nil)
		if err != nil {
			p.noteError(endpoint, err)
		}
	}
}

func (p *pass) doOp(op string, wi int, seq *int, rng *rand.Rand, cg *churnGrant) error {
	switch op {
	case "put":
		// Reuse one pre-sealed container under fresh IDs: puts measure the
		// server's ingest path, not client-side pairing cost, and the
		// disclose/stream working set stays stationary.
		template := p.w.Records[wi%len(p.w.Records)]
		*seq++
		return p.client.PutRecord(&phr.EncryptedRecord{
			ID:        fmt.Sprintf("load/%s/w%02d-%06d", p.nonce, wi, *seq),
			PatientID: "loadgen@phr.example",
			Category:  template.Category,
			Sealed:    template.Sealed,
		})
	case "disclose":
		pair := p.pairs[rng.Intn(len(p.pairs))]
		_, err := p.client.Disclose(pair.recordID, pair.requester)
		return err
	case "stream":
		g := p.streams[rng.Intn(len(p.streams))]
		return p.client.DiscloseCategoryStream(g.PatientID, g.Category, g.RequesterID,
			func(*hybrid.ReCiphertext) error { return nil })
	case "grant":
		if err := p.client.InstallGrant(cg.rekey); err != nil {
			return err
		}
		cg.installed = true
		return nil
	case "revoke":
		if err := p.client.RevokeGrant(cg.patient, cg.category, cg.requester); err != nil {
			return err
		}
		cg.installed = false
		return nil
	case "audit":
		// Raw GET with a discarded body: the op measures the server's
		// encode path, not client-side json.Unmarshal of an ever-growing
		// log.
		c := p.w.Config.Categories[rng.Intn(len(p.w.Config.Categories))]
		resp, err := p.client.HTTP.Get(p.client.Base + "/v1/audit?category=" + url.QueryEscape(string(c)))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("audit: %s", resp.Status)
		}
		return nil
	default:
		return fmt.Errorf("phrload: unknown op %q", op)
	}
}

func (p *pass) run() (*runResult, error) {
	start := time.Now()
	deadline := start.Add(p.cfg.Duration)
	var wg sync.WaitGroup
	for wi := 0; wi < p.cfg.Concurrency; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			p.worker(wi, deadline)
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &runResult{
		Label:     p.label,
		ElapsedS:  elapsed.Seconds(),
		TotalOps:  p.collector.TotalOps(),
		Endpoints: p.collector.Snapshot(elapsed),
	}
	if sm, err := p.client.Metrics(); err == nil {
		res.Server = sm
	}
	p.errMu.Lock()
	if len(p.errors) > 0 {
		res.FirstErrors = p.errors
	}
	p.errMu.Unlock()
	return res, nil
}

// ---------------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------------

func workloadConfig(cfg loadConfig) phr.WorkloadConfig {
	wc := phr.DefaultWorkload()
	wc.Seed = cfg.Seed
	wc.Patients = cfg.Patients
	wc.Requesters = cfg.Requesters
	wc.RecordsPerPatient = cfg.Records
	wc.GrantsPerPatient = cfg.Grants
	wc.BodySize = cfg.Body
	// Deterministic corpus: the same seed regenerates byte-identical
	// records and grants, so legacy and optimized passes (and future PRs)
	// measure the same bytes.
	wc.InsecureDeterministic = true
	return wc
}

// openLoadBackend builds the storage layer for an in-process pass. Disk
// passes get a throwaway directory and interval fsync: the run measures
// the log's steady-state write/read path, not per-request fsync latency
// (which -fsync=always on a real server adds; see docs/storage.md).
func openLoadBackend(store string) (phr.Backend, func(), error) {
	switch store {
	case "", "mem":
		return phr.NewStore(), func() {}, nil
	case "disk":
		dir, err := os.MkdirTemp("", "phrload-disk-*")
		if err != nil {
			return nil, nil, err
		}
		s, err := diskstore.Open(dir, diskstore.Options{Fsync: diskstore.FsyncInterval})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return s, func() { s.Close(); os.RemoveAll(dir) }, nil
	default:
		return nil, nil, fmt.Errorf("phrload: unknown -store %q (want mem, disk, or both)", store)
	}
}

// runPass materializes a fresh corpus, stands up (or attaches to) a
// server, and drives one measured run against it.
func runPass(cfg loadConfig, mix *opMix, label, store string) (*runResult, error) {
	wc := workloadConfig(cfg)
	var base string
	if cfg.Addr == "" {
		backend, cleanup, err := openLoadBackend(store)
		if err != nil {
			return nil, err
		}
		defer cleanup()
		wc.Backend = backend
	}
	w, err := phr.GenerateWorkload(wc)
	if err != nil {
		return nil, err
	}
	if cfg.Addr != "" {
		base = strings.TrimRight(cfg.Addr, "/")
	} else {
		ts := httptest.NewServer(phr.NewServer(w.Service))
		defer ts.Close()
		base = ts.URL
	}
	p, err := newPass(cfg, mix, label, base, w)
	if err != nil {
		return nil, err
	}
	if cfg.Addr != "" {
		if err := p.upload(); err != nil {
			return nil, err
		}
	}
	return p.run()
}

// runBench executes the configured measurement and assembles the BENCH
// file.
func runBench(cfg loadConfig) (*benchFile, error) {
	mix, err := parseMix(cfg.Mix)
	if err != nil {
		return nil, err
	}
	mode := "selftest"
	switch {
	case cfg.Addr != "":
		mode = "remote"
	case !cfg.Selftest:
		return nil, fmt.Errorf("phrload: need -addr or -selftest")
	}
	if cfg.Store == "both" && mode != "selftest" {
		return nil, fmt.Errorf("phrload: -store=both needs -selftest (got mode %s)", mode)
	}
	if cfg.Addr != "" && cfg.Store != "mem" {
		return nil, fmt.Errorf("phrload: -store selects in-process backends; a remote server chooses its own")
	}

	bf := &benchFile{
		Schema:    benchSchema,
		Rev:       resolveRev(cfg.Rev),
		Generated: time.Now().UTC().Format(time.RFC3339),
		Config: benchConfig{
			Mode:              mode,
			DurationS:         cfg.Duration.Seconds(),
			Concurrency:       cfg.Concurrency,
			Patients:          cfg.Patients,
			RecordsPerPatient: cfg.Records,
			Requesters:        cfg.Requesters,
			GrantsPerPatient:  cfg.Grants,
			BodyBytes:         cfg.Body,
			Seed:              cfg.Seed,
			Mix:               cfg.Mix,
			Store:             cfg.Store,
		},
	}

	if cfg.Store == "both" {
		// The memory-vs-disk dimension: same deterministic corpus and mix
		// against each backend, labeled by store.
		for _, store := range []string{"mem", "disk"} {
			run, err := runPass(cfg, mix, "selftest-"+store, store)
			if err != nil {
				return nil, err
			}
			bf.Runs = append(bf.Runs, *run)
		}
	} else {
		run, err := runPass(cfg, mix, mode, cfg.Store)
		if err != nil {
			return nil, err
		}
		bf.Runs = []runResult{*run}
	}
	return bf, nil
}

// runSpotcheck verifies a restarted server end to end: the deterministic
// corpus is regenerated from the same flags, the server must still hold at
// least -min-records records (crash-recovery gate), and every disclosable
// record must disclose and decrypt to the exact plaintext generated before
// the restart. Grants are re-installed first — they are proxy-local state
// and are expected to be lost on restart, unlike records.
func runSpotcheck(cfg loadConfig) error {
	if cfg.Addr == "" {
		return fmt.Errorf("phrload: -spotcheck needs -addr")
	}
	w, err := phr.GenerateWorkload(workloadConfig(cfg))
	if err != nil {
		return err
	}
	client := &phr.Client{Base: strings.TrimRight(cfg.Addr, "/"), HTTP: http.DefaultClient}

	sm, err := client.Metrics()
	if err != nil {
		return fmt.Errorf("phrload: reading server metrics: %w", err)
	}
	if sm.StoreRecords < cfg.MinRecords {
		return fmt.Errorf("phrload: server holds %d records, want >= %d — acknowledged writes were lost",
			sm.StoreRecords, cfg.MinRecords)
	}

	patients := map[string]*phr.Patient{}
	for _, pat := range w.Patients {
		patients[pat.ID()] = pat
	}
	for _, g := range w.Grants {
		pat := patients[g.PatientID]
		rk, err := pat.Delegator().Delegate(w.KGC2.Params(), g.RequesterID,
			core.VersionedType(core.Type(g.Category), pat.Epoch(g.Category)), nil)
		if err != nil {
			return err
		}
		if err := client.InstallGrant(rk); err != nil {
			return fmt.Errorf("phrload: re-installing grant %v: %w", g, err)
		}
	}

	byPC := map[string][]string{}
	for _, g := range w.Grants {
		k := g.PatientID + "\x00" + string(g.Category)
		byPC[k] = append(byPC[k], g.RequesterID)
	}
	checked := 0
	for _, rec := range w.Records {
		for _, req := range byPC[rec.PatientID+"\x00"+string(rec.Category)] {
			rct, err := client.Disclose(rec.ID, req)
			if err != nil {
				return fmt.Errorf("phrload: disclosing %s to %s after restart: %w", rec.ID, req, err)
			}
			body, err := hybrid.DecryptReEncrypted(w.Requesters[req], rct)
			if err != nil {
				return fmt.Errorf("phrload: decrypting %s after restart: %w", rec.ID, err)
			}
			if !bytes.Equal(body, w.Bodies[rec.ID]) {
				return fmt.Errorf("phrload: record %s decrypted to different plaintext after restart", rec.ID)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("phrload: spotcheck disclosed nothing; raise -grants or -records")
	}
	fmt.Printf("spotcheck ok: %d records on server (>= %d required), %d disclosures decrypted byte-identical\n",
		sm.StoreRecords, cfg.MinRecords, checked)
	return nil
}

// resolveRev picks the recorded git revision: the -rev flag (CI passes the
// commit SHA), the binary's embedded VCS stamp, or "unknown".
func resolveRev(flagRev string) string {
	if flagRev != "" {
		return flagRev
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func summarize(w io.Writer, bf *benchFile) {
	for _, run := range bf.Runs {
		fmt.Fprintf(w, "\n== %s (%.1fs, %d ops) ==\n", run.Label, run.ElapsedS, run.TotalOps)
		fmt.Fprintln(w, loadstat.CSVHeader)
		eps := append([]loadstat.EndpointStats(nil), run.Endpoints...)
		sort.Slice(eps, func(i, j int) bool { return eps[i].Ops > eps[j].Ops })
		for _, ep := range eps {
			fmt.Fprintln(w, ep.CSVRow())
		}
		for ep, msg := range run.FirstErrors {
			fmt.Fprintf(w, "first error on %s: %s\n", ep, msg)
		}
	}
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.Addr, "addr", "", "base URL of a running phrserver (e.g. http://127.0.0.1:8080)")
	flag.BoolVar(&cfg.Selftest, "selftest", false, "drive an in-process httptest server instead of -addr")
	flag.DurationVar(&cfg.Duration, "duration", cfg.Duration, "measured duration per run")
	flag.IntVar(&cfg.Concurrency, "concurrency", cfg.Concurrency, "concurrent workers")
	flag.IntVar(&cfg.Patients, "patients", cfg.Patients, "workload: patients")
	flag.IntVar(&cfg.Records, "records", cfg.Records, "workload: records per patient")
	flag.IntVar(&cfg.Requesters, "requesters", cfg.Requesters, "workload: requesters")
	flag.IntVar(&cfg.Grants, "grants", cfg.Grants, "workload: grants per patient")
	flag.IntVar(&cfg.Body, "body", cfg.Body, "workload: record body bytes")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "workload seed (deterministic corpus)")
	flag.StringVar(&cfg.Mix, "mix", cfg.Mix, "op profile as name=weight pairs")
	flag.StringVar(&cfg.Store, "store", cfg.Store, "in-process backend: mem, disk, or both (selftest only)")
	flag.BoolVar(&cfg.Spotcheck, "spotcheck", false, "verify a restarted -addr server against the regenerated corpus instead of load-testing")
	flag.IntVar(&cfg.MinRecords, "min-records", 0, "with -spotcheck: fail unless the server holds at least this many records")
	flag.StringVar(&cfg.Out, "out", cfg.Out, "output JSON path")
	flag.StringVar(&cfg.Rev, "rev", "", "git revision to record (default: build info / GITHUB_SHA)")
	check := flag.String("check", "", "validate an existing BENCH_phrload.json and exit")
	flag.Parse()

	if cfg.Spotcheck {
		if err := runSpotcheck(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err == nil {
			err = checkBench(data)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok\n", *check)
		return
	}

	bf, err := runBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(cfg.Out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	summarize(os.Stdout, bf)
	fmt.Printf("\nwrote %s (rev %s)\n", cfg.Out, bf.Rev)
}
