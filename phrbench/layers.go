package main

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"time"

	"typepre/internal/bn254"
	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
	"typepre/internal/phr"
)

// replaySamples is how many of the run's own disclosures are replayed
// through the crypto layers' public functions, and replayStreams how many
// of its streams.
const (
	replaySamples = 12
	replayStreams = 3
)

// replayCrypto times the hybrid, core, ibe and bn254 layers on a seeded
// sample of the run's own requests: the same records, rekeys and requester
// keys the service used. It returns median microseconds per metric.
func replayCrypto(c *corpus, sched []request, seed int64, tr *tracer) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed ^ 0xc0de))
	var discl, streams []int
	for _, r := range sched {
		switch r.op {
		case opDisclose:
			discl = append(discl, r.target)
		case opStream:
			streams = append(streams, r.target)
		}
	}
	if len(discl) == 0 {
		return nil, fmt.Errorf("replay: the schedule has no disclosures")
	}
	times := map[string][]float64{}
	timeIt := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		end := time.Now()
		times[name] = append(times[name], float64(end.Sub(start))/float64(time.Microsecond))
		tr.add(span{req: -1, kind: replayKind(name), parent: kReplay, start: tr.ns(start), end: tr.ns(end)})
		return err
	}
	scalar := func() *big.Int {
		k, err := bn254.RandomScalar(rng)
		if err != nil {
			panic(err) // a math/rand source never fails
		}
		return k
	}

	for i := range replaySamples {
		p := c.pairs[discl[rng.Intn(len(discl))]]
		rec, requester := p.rec, p.requester
		rk := c.rekeys[grantID{rec.PatientID, rec.Category, requester}]
		sk := c.w.Requesters[requester]
		d := c.patients[rec.PatientID].Delegator()
		params := c.w.KGC2.Params()
		typ := rec.Sealed.KEM.Type
		body := c.w.Bodies[rec.ID]
		pk := ibe.PublicKeyOf(requester)
		if rk == nil || sk == nil {
			return nil, fmt.Errorf("replay sample %d: no grant or key for %s -> %s", i, rec.ID, requester)
		}

		var rct *hybrid.ReCiphertext
		var err error
		steps := []struct {
			name string
			f    func() error
		}{
			{"hybrid.reencrypt_us", func() error { rct, err = hybrid.ReEncrypt(rec.Sealed, rk); return err }},
			{"hybrid.decrypt_reencrypted_us", func() error {
				got, err := hybrid.DecryptReEncrypted(sk, rct)
				if err == nil && !bytes.Equal(got, body) {
					err = fmt.Errorf("replay: %s decrypts to the wrong body", rec.ID)
				}
				return err
			}},
			{"hybrid.encrypt_us", func() error { _, err := hybrid.Encrypt(d, body, typ, rng); return err }},
			{"core.reencrypt_us", func() error { _, err := core.ReEncrypt(rec.Sealed.KEM, rk); return err }},
			{"core.decrypt_reencrypted_us", func() error { _, err := core.DecryptReEncrypted(sk, rct.KEM); return err }},
			{"core.encrypt_us", func() error { _, err := d.Encrypt(rct.KEM.C2, typ, rng); return err }},
			{"core.delegate_us", func() error { _, err := d.Delegate(params, requester, typ, rng); return err }},
			{"ibe.encrypt_us", func() error { _, err := ibe.Encrypt(params, requester, rct.KEM.C2, rng); return err }},
			{"ibe.decrypt_us", func() error { _, err := ibe.Decrypt(sk, rk.EncX); return err }},
			{"ibe.extract_us", func() error { c.w.KGC2.Extract(requester); return nil }},
			{"bn254.pair_us", func() error { bn254.Pair(rk.RK, rec.Sealed.KEM.C1); return nil }},
			{"bn254.pair_prepared_us", func() error { bn254.PairPrepared(pk, params.PreparedPK()); return nil }},
		}
		for _, s := range steps {
			if err := timeIt(s.name, s.f); err != nil {
				return nil, fmt.Errorf("replay %s: %w", s.name, err)
			}
		}
		prk := core.PrepareReKey(rk)
		if _, err := hybrid.ReEncryptPrepared(rec.Sealed, prk); err != nil {
			return nil, err
		}
		_ = timeIt("hybrid.reencrypt_prepared_hit_us", func() error {
			_, err := hybrid.ReEncryptPrepared(rec.Sealed, prk)
			return err
		})
		gtK, g2K, g1K, expK := scalar(), scalar(), scalar(), scalar()
		_ = timeIt("bn254.gt_exp_us", func() error { new(bn254.GT).Exp(rct.KEM.C2, expK); return nil })
		_ = timeIt("bn254.gt_exp_base_us", func() error { bn254.GTExpBase(gtK); return nil })
		_ = timeIt("bn254.g2_base_mult_us", func() error { new(bn254.G2).ScalarBaseMult(g2K); return nil })
		_ = timeIt("bn254.g1_scalar_mult_us", func() error { new(bn254.G1).ScalarMult(rk.RK, g1K); return nil })
	}

	// Streams: one fresh prepared key per triple, so every record pays
	// its pairing on the ReEncryptStream worker pool.
	for i := 0; i < replayStreams && len(streams) > 0; i++ {
		t := c.triples[streams[rng.Intn(len(streams))]]
		rk := c.rekeys[grantID{t.patient, t.category, t.requester}]
		cts := make([]*hybrid.Ciphertext, len(t.recs))
		for j, rec := range t.recs {
			cts[j] = rec.Sealed
		}
		start := time.Now()
		n := 0
		err := hybrid.ReEncryptStream(cts, core.PrepareReKey(rk), 0, func(*hybrid.ReCiphertext) error { n++; return nil })
		if err != nil {
			return nil, fmt.Errorf("replay stream: %w", err)
		}
		times["hybrid.reencrypt_stream_us_per_record"] = append(times["hybrid.reencrypt_stream_us_per_record"],
			float64(time.Since(start))/float64(time.Microsecond)/float64(max(1, n)))
	}

	out := map[string]float64{}
	for name, xs := range times {
		out[name] = median(xs)
	}
	return out, nil
}

// replayKinds gives each replayed function its own span kind.
var replayKinds = map[string]kind{}

func replayKind(name string) kind {
	k, ok := replayKinds[name]
	if !ok {
		k = newKind(name)
		replayKinds[name] = k
	}
	return k
}

// phrLayer times the phr layer's own entry points after the window:
// AuditLog.Tail on the largest proxy log, and Proxy.Install / Revoke of the
// churn keys on their proxies. It also counts the audit entries.
func phrLayer(c *corpus) (map[string]float64, error) {
	out := map[string]float64{}
	var biggest *phr.AuditLog
	entries := 0
	for _, p := range c.w.Service.Proxies() {
		n := p.Audit().Len()
		entries += n
		if biggest == nil || n > biggest.Len() {
			biggest = p.Audit()
		}
	}
	out["phr.audit_entries"] = float64(entries)
	var tail []float64
	for range 32 {
		start := time.Now()
		biggest.Tail(auditLimit)
		tail = append(tail, float64(time.Since(start))/float64(time.Microsecond))
	}
	out["phr.audit_tail_us"] = median(tail)

	var install, revoke []float64
	for range 4 {
		for _, k := range c.churn {
			proxy, err := c.w.Service.ProxyFor(phr.BaseCategory(k.rk.Type))
			if err != nil {
				return nil, err
			}
			was := k.installed
			start := time.Now()
			if err := proxy.Install(k.rk); err != nil {
				return nil, err
			}
			mid := time.Now()
			if err := proxy.Revoke(k.rk.DelegatorID, phr.BaseCategory(k.rk.Type), k.rk.DelegateeID); err != nil {
				return nil, err
			}
			end := time.Now()
			install = append(install, float64(mid.Sub(start))/float64(time.Microsecond))
			revoke = append(revoke, float64(end.Sub(mid))/float64(time.Microsecond))
			if was {
				if err := proxy.Install(k.rk); err != nil {
					return nil, err
				}
			}
		}
	}
	out["phr.install_us"] = median(install)
	out["phr.revoke_us"] = median(revoke)
	return out, nil
}

// runtimeWindow holds the runtime counters read at the window's edges.
type runtimeWindow struct {
	before, after runtime.MemStats
	peakHeap      uint64
}

// runtimeMetrics turns the window's runtime counters into per-op figures.
func runtimeMetrics(rw *runtimeWindow, ops int) map[string]float64 {
	n := float64(max(1, ops))
	return map[string]float64{
		"runtime.allocs_per_op":      float64(rw.after.Mallocs-rw.before.Mallocs) / n,
		"runtime.alloc_bytes_per_op": float64(rw.after.TotalAlloc-rw.before.TotalAlloc) / n,
		"runtime.gc_cycles":          float64(rw.after.NumGC - rw.before.NumGC),
		"runtime.gc_pause_ms":        float64(rw.after.PauseTotalNs-rw.before.PauseTotalNs) / 1e6,
		"runtime.goroutines_end":     float64(runtime.NumGoroutine()),
		"runtime.heap_peak_mb":       float64(max(rw.peakHeap, rw.after.HeapAlloc)) / (1 << 20),
	}
}
