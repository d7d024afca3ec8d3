package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// opKind is one kind of request the generator sends.
type opKind int

const (
	opDisclose opKind = iota // GET /v1/records/{id}
	opStream                 // GET /v1/patients/{p}/categories/{c}
	opPut                    // POST /v1/records
	opGrant                  // POST /v1/grants, then DELETE /v1/grants
	opAudit                  // GET /v1/audit?category=C&limit=N
	numOps
)

var opNames = [numOps]string{"disclose", "stream", "put", "grant", "audit"}

// spec fixes one workload: its traffic mix, its open-loop rate and the
// limits a run is judged against. The rates are constants, not measured per
// run, so two commits always receive the same load.
type spec struct {
	name string
	// rate is the scheduled arrival rate in requests per second.
	rate float64
	// mix is each op's share of the schedule. Every workload carries every
	// op so each end-to-end metric has samples on each workload.
	mix [numOps]float64
	// sloMs is the latency limit a request must meet to count in
	// slo_ok_ratio.
	sloMs float64
	// driftBound is the largest gen.half_drift a steady run shows.
	driftBound float64
	bodySize   int
	// disk puts the corpus on a diskstore instead of the memory store.
	disk bool
	// cold sizes the corpus so that no (record, requester) pair repeats
	// and every re-encryption misses the prepared-rekey cache.
	cold bool
}

var specs = map[string]spec{
	"cold-disclose": {
		name:       "cold-disclose",
		rate:       45,
		mix:        [numOps]float64{opDisclose: 0.48, opStream: 0.05, opPut: 0.15, opGrant: 0.16, opAudit: 0.16},
		sloMs:      100,
		driftBound: 0.15,
		bodySize:   256,
		cold:       true,
	},
	"ingest-churn": {
		name:       "ingest-churn",
		rate:       300,
		mix:        [numOps]float64{opDisclose: 0.36, opStream: 0.04, opPut: 0.40, opGrant: 0.15, opAudit: 0.05},
		sloMs:      10,
		driftBound: 0.15,
		bodySize:   16 << 10,
		disk:       true,
	},
}

// request is one scheduled request: its op, when it falls due (offset
// into the window), and its input. target indexes the op's own target list
// (pairs, triples, put pool, churn keys, categories); verify marks a
// disclosure whose response is decrypted and compared after the window.
type request struct {
	op     opKind
	due    time.Duration
	target int
	verify bool
}

// buildSchedule lays out every request due within the window. Each op
// arrives open-loop at its own constant rate, rate*share, as in wrk2: one
// arrival per period, at a seeded random point within the period. Counts
// are exact (rate*share*seconds, rounded), and the periods divide the
// window evenly among them, so no arrival falls past its end. Two seeds
// differ in which inputs they touch and where arrivals fall, not in how
// much work they carry. The schedule depends only on the spec, the seed
// and the window.
func buildSchedule(sp spec, seed int64, seconds float64) []request {
	rng := rand.New(rand.NewSource(seed))
	var sched []request
	for op := range numOps {
		n := int(math.Round(sp.rate * sp.mix[op] * seconds))
		for j := range n {
			at := (float64(j) + rng.Float64()) * seconds / float64(n)
			sched = append(sched, request{op: op, due: time.Duration(at * float64(time.Second))})
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].due < sched[j].due })
	return sched
}

// countOps returns how many requests of each op a schedule holds.
func countOps(sched []request) [numOps]int {
	var n [numOps]int
	for _, r := range sched {
		n[r.op]++
	}
	return n
}

// verifySample is how many disclosures, and how many streams, each run
// keeps for decryption after the window.
const (
	verifyDisclosures = 24
	verifyStreams     = 2
)

// bindTargets points every request at its input. Warm workloads draw
// reads uniformly from the corpus, so pairs repeat and stay cached; the
// cold workload hands out each pair and each stream triple once, in the
// corpus's shuffled order. Puts and grant churn take consecutive slots.
func bindTargets(sched []request, c *corpus, seed int64, cold bool) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var next [numOps]int
	var seen [numOps]int
	counts := countOps(sched)
	for i := range sched {
		r := &sched[i]
		switch r.op {
		case opDisclose:
			r.target = rng.Intn(len(c.pairs))
		case opStream:
			r.target = rng.Intn(len(c.triples))
		case opAudit:
			r.target = rng.Intn(len(c.categories))
		}
		if cold && (r.op == opDisclose || r.op == opStream) || r.op == opPut || r.op == opGrant {
			r.target = next[r.op]
			next[r.op]++
		}
		// Spread the verified sample evenly over the window.
		switch r.op {
		case opDisclose:
			r.verify = seen[r.op]%max(1, counts[r.op]/verifyDisclosures) == 0
		case opStream:
			r.verify = seen[r.op]%max(1, counts[r.op]/verifyStreams) == 0
		}
		seen[r.op]++
	}
	if cold && (next[opDisclose] > len(c.pairs) || next[opStream] > len(c.triples)) {
		return fmt.Errorf("cold corpus too small: %d pairs for %d disclosures, %d triples for %d streams",
			len(c.pairs), next[opDisclose], len(c.triples), next[opStream])
	}
	return nil
}
