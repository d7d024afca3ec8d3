package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"typepre/internal/hybrid"
	"typepre/internal/phr"
)

// maxInFlight is the number of generator connections, one per CPU of the
// 2-vCPU reference box: at most this many requests are in flight.
const maxInFlight = 2

// giveUp bounds how far past the window a backlogged run keeps sending;
// whatever is still unsent then counts as failed.
const giveUp = 30 * time.Second

// verified is a response kept for decryption after the window.
type verified struct {
	recordID  string
	requester string
	rct       *hybrid.ReCiphertext
}

// ackedPut is a put the server acknowledged.
type ackedPut struct {
	id   string
	pool int
}

// workerResult is what one generator connection observed. Each worker owns
// its own; they are merged after the window.
type workerResult struct {
	lat       [numOps][]sample
	late      []float64 // ms between due and send, every request
	attempted int
	failed    int
	sloOK     int
	errs      []string
	verify    []verified
	puts      []ackedPut
}

func (r *workerResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// runner drives one timed window against a corpus.
type runner struct {
	sp     spec
	c      *corpus
	sched  []request
	window time.Duration
	tr     *tracer
	start  time.Time
	next   atomic.Int64
}

// run sends the schedule open-loop from maxInFlight connections and
// returns the merged observations.
func (r *runner) run() *workerResult {
	results := make([]*workerResult, maxInFlight)
	var wg sync.WaitGroup
	for w := range maxInFlight {
		results[w] = &workerResult{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.worker(results[w])
		}()
	}
	wg.Wait()
	out := &workerResult{}
	for _, res := range results {
		for op := range numOps {
			out.lat[op] = append(out.lat[op], res.lat[op]...)
		}
		out.late = append(out.late, res.late...)
		out.attempted += res.attempted
		out.failed += res.failed
		out.sloOK += res.sloOK
		out.errs = append(out.errs, res.errs...)
		out.verify = append(out.verify, res.verify...)
		out.puts = append(out.puts, res.puts...)
	}
	return out
}

// worker takes the next due request, waits for its due time if it is
// early, sends it and records its latency from due. How late each send
// ran shows in gen.late_p99_ms.
func (r *runner) worker(res *workerResult) {
	// Only the traced run tags requests with their ID.
	var tag *reqTag
	if r.tr != nil {
		tag = &reqTag{}
	}
	cl := r.c.client(tag)
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.sched) {
			return
		}
		req := r.sched[i]
		due := r.start.Add(req.due)
		res.attempted++
		if time.Since(r.start) > r.window+giveUp {
			res.fail("request %d (%s): not sent, backlog exceeded %v", i, opNames[req.op], giveUp)
			continue
		}
		sleepUntil(due)
		sent := time.Now()
		if tag != nil {
			tag.id.Store(int64(i) + 1)
		}
		err := r.do(cl, req, res)
		done := time.Now()

		res.late = append(res.late, ms(sent.Sub(due)))
		if r.tr != nil {
			r.tr.add(span{req: int32(i), kind: kClient, parent: kNone, start: r.tr.ns(due), end: r.tr.ns(done)})
		}
		if err != nil {
			res.fail("request %d (%s): %v", i, opNames[req.op], err)
			continue
		}
		lat := fromDue(due, done)
		res.lat[req.op] = append(res.lat[req.op], sample{due: req.due, ms: lat})
		if lat <= r.sp.sloMs {
			res.sloOK++
		}
	}
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// kernelSleep is how much of a wait sleepUntil spends in the kernel. The
// rest is spent on a Go timer.
const kernelSleep = 2 * time.Millisecond

// sleepUntil blocks until t. A Go timer fires late by up to a millisecond,
// because the runtime rounds its wait for the next timer up to whole
// milliseconds when it has nothing else to run, and that oversleep would
// sit in every latency, which is under a millisecond on the warm path. So
// sleepUntil waits on a Go timer only until kernelSleep before t and
// sleeps the rest in the kernel, with the thread's timer slack cut from
// the kernel's default 50 µs to 1 µs (on failure the default stays). The
// thread wakes where it slept; a timerfd read through the network poller
// was tried instead and woke 30–90 µs later, on the poller's thread. A
// goroutine keeps its P while it sleeps in the kernel, which is why that
// part is kept short.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if d > kernelSleep {
		time.Sleep(d - kernelSleep)
		if d = time.Until(t); d <= 0 {
			return
		}
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// do sends one request and checks its response.
func (r *runner) do(cl *phr.Client, req request, res *workerResult) error {
	switch req.op {
	case opDisclose:
		p := r.c.pairs[req.target]
		rct, err := cl.Disclose(p.rec.ID, p.requester)
		if err != nil {
			return err
		}
		if err := checkContainer(rct, p.rec, p.requester); err != nil {
			return err
		}
		if req.verify {
			res.verify = append(res.verify, verified{p.rec.ID, p.requester, rct})
		}
		return nil
	case opStream:
		t := r.c.triples[req.target]
		n := 0
		err := cl.DiscloseCategoryStream(t.patient, t.category, t.requester, func(rct *hybrid.ReCiphertext) error {
			if n >= len(t.recs) {
				return fmt.Errorf("stream delivered more than the %d records of %s/%s", len(t.recs), t.patient, t.category)
			}
			if err := checkContainer(rct, t.recs[n], t.requester); err != nil {
				return fmt.Errorf("stream frame %d: %w", n, err)
			}
			if req.verify {
				res.verify = append(res.verify, verified{t.recs[n].ID, t.requester, rct})
			}
			n++
			return nil
		})
		if err != nil {
			return err
		}
		if n != len(t.recs) {
			return fmt.Errorf("stream of %s/%s delivered %d of %d records", t.patient, t.category, n, len(t.recs))
		}
		return nil
	case opPut:
		pool := req.target % len(r.c.putPool)
		rec := r.c.putPool[pool]
		rec.ID = putID(req.target)
		if err := cl.PutRecord(&rec); err != nil {
			return err
		}
		res.puts = append(res.puts, ackedPut{rec.ID, pool})
		return nil
	case opGrant:
		return r.churn(cl, req.target)
	case opAudit:
		cat := r.c.categories[req.target]
		entries, err := getAudit(cl, cat, auditLimit)
		if err != nil {
			return err
		}
		return checkAudit(entries, cat, auditLimit)
	}
	return fmt.Errorf("unknown op %d", req.op)
}

func putID(n int) string { return fmt.Sprintf("ingest/put-%07d", n) }

// churn runs grant op g: the churn keys take turns, each alternating
// install and revoke. An op waits for the previous op on its key, so a
// revoke never overtakes the install it undoes.
func (r *runner) churn(cl *phr.Client, g int) error {
	k := r.c.churn[(g/2)%len(r.c.churn)]
	seq := (g/2)/len(r.c.churn)*2 + g%2
	k.mu.Lock()
	for k.done < seq {
		k.cond.Wait()
	}
	k.mu.Unlock()
	var err error
	install := seq%2 == 0
	if install {
		err = cl.InstallGrant(k.rk)
	} else {
		err = cl.RevokeGrant(k.rk.DelegatorID, phr.BaseCategory(k.rk.Type), k.rk.DelegateeID)
	}
	k.mu.Lock()
	k.done++
	if err == nil {
		k.installed = install
	}
	k.cond.Broadcast()
	k.mu.Unlock()
	return err
}

// checkContainer checks that a disclosed container is the given record
// transformed toward the requester: the payload nonce is copied verbatim
// by re-encryption, so it names the record.
func checkContainer(rct *hybrid.ReCiphertext, rec *phr.EncryptedRecord, requester string) error {
	switch {
	case rct.KEM.DelegateeID != requester:
		return fmt.Errorf("record %s: container for %q, want %q", rec.ID, rct.KEM.DelegateeID, requester)
	case rct.KEM.DelegatorID != rec.PatientID:
		return fmt.Errorf("record %s: container from %q, want %q", rec.ID, rct.KEM.DelegatorID, rec.PatientID)
	case rct.KEM.Type != rec.Sealed.KEM.Type:
		return fmt.Errorf("record %s: container type %q, want %q", rec.ID, rct.KEM.Type, rec.Sealed.KEM.Type)
	case !bytes.Equal(rct.Nonce, rec.Sealed.Nonce):
		return fmt.Errorf("record %s: container holds another record's payload", rec.ID)
	}
	return nil
}

// getAudit fetches one audit tail page. phr.Client has no paged audit
// call, so this speaks the documented HTTP API directly.
func getAudit(cl *phr.Client, cat phr.Category, limit int) ([]phr.AuditEntry, error) {
	q := url.Values{"category": {string(cat)}, "limit": {fmt.Sprint(limit)}}
	resp, err := cl.HTTP.Get(cl.Base + "/v1/audit?" + q.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("audit %s: %s: %s", cat, resp.Status, body)
	}
	var entries []phr.AuditEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		return nil, fmt.Errorf("audit %s: %w", cat, err)
	}
	return entries, nil
}

// checkAudit checks an audit tail page: at most limit entries, all from
// the category's proxy, with consecutive sequence numbers.
func checkAudit(entries []phr.AuditEntry, cat phr.Category, limit int) error {
	if len(entries) > limit {
		return fmt.Errorf("audit %s: %d entries, limit %d", cat, len(entries), limit)
	}
	for i, e := range entries {
		if e.Proxy != "proxy-"+string(cat) {
			return fmt.Errorf("audit %s: entry %d from %q", cat, e.Seq, e.Proxy)
		}
		if i > 0 && e.Seq != entries[i-1].Seq+1 {
			return fmt.Errorf("audit %s: seq %d follows %d", cat, e.Seq, entries[i-1].Seq)
		}
	}
	return nil
}
