// Command phrbench is the repository's benchmark: it stands up the §5 PHR
// disclosure service in-process behind loopback HTTP, drives it open-loop
// at a fixed rate from at most two connections, checks every response and
// prints every metric. See README.md in this directory.
//
//	bash phrbench/run.sh --workload cold-disclose --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"typepre/internal/hybrid"
	"typepre/internal/phr/diskstore"
)

// setupRuns is how many times each run sets the deployment up; setup_s is
// the median. The last setup serves the timed window.
const setupRuns = 3

func main() {
	workload := flag.String("workload", "", "workload: cold-disclose or ingest-churn")
	seed := flag.Int64("seed", 1, "seed of the corpus and the schedule")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for scratch data and trace files")
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "phrbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", sortedNames(specs))
		os.Exit(2)
	}
	rep, err := run(sp, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phrbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, *trace == 1)
	if !rep.correct {
		os.Exit(1)
	}
}

// report is the outcome of one run.
type report struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	errs      []string
	values    map[string]float64
	counts    map[string]int // latency sample counts per op
}

// run sets up, measures one window and checks the outputs.
func run(sp spec, seed int64, seconds float64, traced bool, out string) (*report, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	sched := buildSchedule(sp, seed, seconds)
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var c *corpus
	var setups []float64
	for n := range setupRuns {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if c, err = newCorpus(sp, seed, countOps(sched), tr, dataDir(out, n)); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.close()
	if err := bindTargets(sched, c, seed, sp.cold); err != nil {
		return nil, err
	}

	// The window.
	runtime.GC()
	rw := &runtimeWindow{}
	runtime.ReadMemStats(&rw.before)
	cpu0 := cpuTime()
	window := time.Duration(seconds * float64(time.Second))
	r := &runner{sp: sp, c: c, sched: sched, window: window, tr: tr, start: time.Now().Add(time.Millisecond)}
	stopPeak := make(chan struct{})
	peakDone := make(chan struct{})
	if traced {
		tr.t0 = r.start
		tr.on.Store(true)
		go samplePeakHeap(rw, stopPeak, peakDone)
	} else {
		close(peakDone)
	}
	res := r.run()
	if traced {
		tr.on.Store(false)
		close(stopPeak)
	}
	<-peakDone
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&rw.after)

	rep := &report{workload: sp.name, values: map[string]float64{}, counts: map[string]int{}}
	completed := res.attempted - res.failed
	latencyMetrics(res, rep.values, rep.counts)
	rep.values["setup_s"] = median(setups)
	rep.values["slo_ok_ratio"] = float64(res.sloOK) / float64(max(1, res.attempted))
	rep.values["cpu_ms_per_op"] = cpu.Seconds() * 1e3 / float64(max(1, completed))
	rep.values["gen.late_p99_ms"] = quantile(res.late, 0.99)
	rep.values["gen.late_p50_ms"] = quantile(res.late, 0.5)
	for op := range numOps {
		d := halfDrift(res.lat[op], window, 50)
		rep.values["gen.half_drift."+opNames[op]] = d
		rep.values["gen.half_drift"] = max(rep.values["gen.half_drift"], d)
	}

	// heap_mb is the program's live heap, so the generator first lets go
	// of what only it holds: the raw samples, and on the untraced run the
	// schedule and every generated body but the ones it still decrypts.
	// The traced run replays the schedule and reports no heap_mb.
	res.lat, res.late = [numOps][]sample{}, nil
	if !traced {
		sched, r.sched = nil, nil
		keep := map[string][]byte{}
		for _, v := range res.verify {
			keep[v.recordID] = c.w.Bodies[v.recordID]
		}
		c.w.Bodies = keep
	}
	// Two collections: the first moves sync.Pool contents to the pools'
	// victim caches, the second frees them, so heap_mb counts live data.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.values["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	// Checks after the window.
	checkVerified(c, res)
	checkRevoked(c, res)

	if traced {
		tr.on.Store(true) // the replay's spans join the trace
		crypto, err := replayCrypto(c, sched, seed, tr)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		attribute(spans, func(req int32) string { return c.storeKey(sched[req]) })
		for name, v := range spanMetrics(spans, sched) {
			rep.values[name] = v
		}
		phrm, err := phrLayer(c)
		if err != nil {
			return nil, err
		}
		for _, m := range []map[string]float64{crypto, phrm, runtimeMetrics(rw, completed)} {
			for name, v := range m {
				rep.values[name] = v
			}
		}
		rep.values["trace.disclose_p25_ms"] = rep.values["disclose_p25_ms"]
		rep.values["trace.cpu_ms_per_op"] = rep.values["cpu_ms_per_op"]
		if err := os.MkdirAll(filepath.Join(out, "traces"), 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(out, "traces", sp.name+".csv"), spans); err != nil {
			return nil, err
		}
	}
	for _, name := range []string{"diskstore.live_bytes", "diskstore.garbage_bytes", "diskstore.segments", "disk_bytes_per_user_byte"} {
		rep.values[name] = 0 // the memory store has no disk
	}
	if c.disk != nil {
		st := c.disk.Stats()
		rep.values["diskstore.live_bytes"] = float64(st.LiveBytes)
		rep.values["diskstore.garbage_bytes"] = float64(st.GarbageBytes)
		rep.values["diskstore.segments"] = float64(st.Segments)
		user := 0
		for _, rec := range c.w.Records {
			user += len(rec.Sealed.Marshal())
		}
		for _, p := range res.puts {
			user += len(c.putPool[p.pool].Sealed.Marshal())
		}
		rep.values["disk_bytes_per_user_byte"] = float64(st.LiveBytes+st.GarbageBytes) / float64(max(1, user))
	}
	if err := c.stopServer(); err != nil {
		return nil, err
	}
	if c.disk != nil {
		checkReopen(c, res)
	}

	rep.attempted, rep.failed, rep.errs = res.attempted, res.failed, res.errs
	rep.values["fail_ratio"] = float64(res.failed) / float64(max(1, res.attempted))
	rep.correct = res.failed == 0
	if rep.values["gen.half_drift"] > sp.driftBound {
		fmt.Fprintf(os.Stderr, "phrbench: not stationary: half drift %.3f exceeds %.2f\n", rep.values["gen.half_drift"], sp.driftBound)
	}
	return rep, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// samplePeakHeap tracks the largest live heap seen during the window.
func samplePeakHeap(rw *runtimeWindow, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	var ms runtime.MemStats
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			runtime.ReadMemStats(&ms)
			rw.peakHeap = max(rw.peakHeap, ms.HeapAlloc)
		}
	}
}

// checkVerified decrypts the kept sample of disclosures with each
// requester's own key and compares them with the generated bodies.
func checkVerified(c *corpus, res *workerResult) {
	if len(res.verify) == 0 && res.attempted > 0 {
		res.fail("verify: no disclosure was kept for decryption")
	}
	for _, v := range res.verify {
		body, err := hybrid.DecryptReEncrypted(c.w.Requesters[v.requester], v.rct)
		if err != nil {
			res.fail("verify %s for %s: %v", v.recordID, v.requester, err)
			continue
		}
		if !bytes.Equal(body, c.w.Bodies[v.recordID]) {
			res.fail("verify %s for %s: plaintext differs from the generated body", v.recordID, v.requester)
		}
	}
}

// checkRevoked checks that a revoked churn pair is refused with 403.
func checkRevoked(c *corpus, res *workerResult) {
	cl := c.client(nil)
	var k *churnKey
	for _, ck := range c.churn {
		if !ck.installed {
			k = ck
			break
		}
	}
	if k == nil {
		k = c.churn[0]
		if err := cl.RevokeGrant(k.rk.DelegatorID, k.rk.Type, k.rk.DelegateeID); err != nil {
			res.fail("revoke churn grant: %v", err)
			return
		}
		k.installed = false
	}
	resp, err := cl.HTTP.Get(c.base + "/v1/records/" + url.PathEscape(k.record) + "?requester=" + url.QueryEscape(k.rk.DelegateeID))
	if err != nil {
		res.fail("revoked pair: %v", err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		res.fail("revoked pair %s for %s: status %s, want 403", k.record, k.rk.DelegateeID, resp.Status)
	}
}

// checkReopen closes the diskstore, opens it again and checks that every
// acknowledged put is present with the bytes that were uploaded.
func checkReopen(c *corpus, res *workerResult) {
	if err := c.disk.Close(); err != nil {
		res.fail("close diskstore: %v", err)
	}
	c.disk = nil
	ds, err := diskstore.Open(c.dir, diskstore.Options{})
	if err != nil {
		res.fail("reopen diskstore: %v", err)
		return
	}
	c.disk = ds
	pool := make([][]byte, len(c.putPool))
	for i, rec := range c.putPool {
		pool[i] = rec.Sealed.Marshal()
	}
	for _, p := range res.puts {
		rec, err := ds.Get(p.id)
		if err != nil {
			res.fail("after reopen, acknowledged put %s: %v", p.id, err)
			continue
		}
		if !bytes.Equal(rec.Sealed.Marshal(), pool[p.pool]) {
			res.fail("after reopen, acknowledged put %s holds other bytes", p.id)
		}
	}
	if want := len(c.w.Records) + len(res.puts); ds.Count() != want {
		res.fail("after reopen: %d records, want %d", ds.Count(), want)
	}
}

// print writes a table of every metric the run measured, then the result
// line: the end-to-end metrics, or with traced the per-layer ones.
func (rep *report) print(w *os.File, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "phrbench %s: %d attempted, %d failed\n", rep.workload, rep.attempted, rep.failed)
	for _, e := range rep.errs {
		fmt.Fprintln(w, "  failure:", e)
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		known[d.name] = true
		if v, ok := rep.values[d.name]; ok {
			fmt.Fprintf(w, "  %-40s %14.4f %-6s %s is better%s\n", d.name, v, d.unit, d.better, rep.sampleNote(d.name))
		}
	}
	var extra []string
	for name := range rep.values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  %-40s %14.4f\n", name, rep.values[name])
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{orZero(rep.values[d.name]), d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		panic(err) // the result holds only finite floats and strings
	}
	fmt.Fprintln(w, string(line))
}

// sampleNote names the sample count behind a latency metric.
func (rep *report) sampleNote(name string) string {
	for op := range numOps {
		for _, q := range []string{"_p25_ms", "_p50_ms", "_p99_ms"} {
			if name == opNames[op]+q {
				return fmt.Sprintf(" (n=%d)", rep.counts[opNames[op]])
			}
		}
	}
	return ""
}
