package main

import (
	"math"
	"sort"
)

// metricDef is one reported metric. The two lists below are the ones
// BENCHMARK.json declares, in the same order; a test keeps them in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the service sees, measured with tracing off.
// Every entry is never 0 and steady from run to run on every workload.
// Latencies are lower quartiles: CPU time the hypervisor steals from the
// VM delays a share of requests that changes from run to run, which moves
// the median with it, while the quickest quarter stays the service's own
// cost. Streams are left out: a stream waits for a pool spread over both
// CPUs, so steal on either one delays it, and its latency moved twice as
// far as the host's speed. The rest of what the untraced run measures
// (slo_ok_ratio, fail_ratio, the stream quartile, the medians and the
// p99s) is printed in its table and reported per layer.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"disclose_p25_ms", "ms", "lower"},
	{"put_p25_ms", "ms", "lower"},
	{"grant_p25_ms", "ms", "lower"},
	{"audit_p25_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// perLayer is what the traced run reports, layer by layer.
var perLayer = []metricDef{
	{"httpapi.handler_us.disclose", "us", "lower"},
	{"httpapi.handler_us.stream", "us", "lower"},
	{"httpapi.handler_us.put", "us", "lower"},
	{"httpapi.handler_us.grant", "us", "lower"},
	{"httpapi.handler_us.audit", "us", "lower"},
	{"httpapi.outside_us.disclose", "us", "lower"},
	{"httpapi.resp_bytes.disclose", "bytes", "lower"},
	{"httpapi.resp_bytes.stream", "bytes", "lower"},
	{"phr.self_us.disclose", "us", "lower"},
	{"phr.self_us.stream", "us", "lower"},
	{"phr.audit_entries", "count", "lower"},
	{"phr.audit_tail_us", "us", "lower"},
	{"phr.install_us", "us", "lower"},
	{"phr.revoke_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.get_calls_per_disclose", "count", "lower"},
	{"store.list_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.put_p99_us", "us", "lower"},
	{"diskstore.live_bytes", "bytes", "lower"},
	{"diskstore.garbage_bytes", "bytes", "lower"},
	{"diskstore.segments", "count", "lower"},
	{"disk_bytes_per_user_byte", "ratio", "lower"},
	{"hybrid.reencrypt_prepared_hit_us", "us", "lower"},
	{"hybrid.reencrypt_us", "us", "lower"},
	{"hybrid.reencrypt_stream_us_per_record", "us", "lower"},
	{"hybrid.decrypt_reencrypted_us", "us", "lower"},
	{"hybrid.encrypt_us", "us", "lower"},
	{"core.reencrypt_us", "us", "lower"},
	{"core.encrypt_us", "us", "lower"},
	{"core.delegate_us", "us", "lower"},
	{"core.decrypt_reencrypted_us", "us", "lower"},
	{"ibe.encrypt_us", "us", "lower"},
	{"ibe.decrypt_us", "us", "lower"},
	{"ibe.extract_us", "us", "lower"},
	{"bn254.pair_us", "us", "lower"},
	{"bn254.pair_prepared_us", "us", "lower"},
	{"bn254.gt_exp_us", "us", "lower"},
	{"bn254.gt_exp_base_us", "us", "lower"},
	{"bn254.g2_base_mult_us", "us", "lower"},
	{"bn254.g1_scalar_mult_us", "us", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.goroutines_end", "count", "lower"},
	{"runtime.heap_peak_mb", "MiB", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"gen.half_drift", "ratio", "lower"},
	{"slo_ok_ratio", "ratio", "higher"},
	{"fail_ratio", "ratio", "lower"},
	{"stream_p25_ms", "ms", "lower"},
	{"disclose_p50_ms", "ms", "lower"},
	{"stream_p50_ms", "ms", "lower"},
	{"put_p50_ms", "ms", "lower"},
	{"grant_p50_ms", "ms", "lower"},
	{"audit_p50_ms", "ms", "lower"},
	{"disclose_p99_ms", "ms", "lower"},
	{"stream_p99_ms", "ms", "lower"},
	{"put_p99_ms", "ms", "lower"},
	{"trace.disclose_p25_ms", "ms", "lower"},
	{"trace.cpu_ms_per_op", "ms", "lower"},
}

// latencyMetrics fills the p25/p50/p99 latency metrics of each op and
// their sample counts.
func latencyMetrics(res *workerResult, vals map[string]float64, counts map[string]int) {
	for op := range numOps {
		xs := make([]float64, len(res.lat[op]))
		for i, s := range res.lat[op] {
			xs[i] = s.ms
		}
		name := opNames[op]
		counts[name] = len(xs)
		vals[name+"_p25_ms"] = quantile(xs, 0.25)
		vals[name+"_p50_ms"] = quantile(xs, 0.5)
		vals[name+"_p99_ms"] = quantile(xs, 0.99)
	}
}

// spanMetrics derives the httpapi, phr and store metrics from the traced
// window's spans. A layer's time is the median over requests; self time
// is the handler span minus the store spans inside it.
func spanMetrics(spans []span, sched []request) map[string]float64 {
	type reqSpans struct {
		client, handler *span
		children        []interval
		gets            int
	}
	byReq := map[int32]*reqSpans{}
	get := func(i int32) *reqSpans {
		r := byReq[i]
		if r == nil {
			r = &reqSpans{}
			byReq[i] = r
		}
		return r
	}
	var getUs, listUs, putUs []float64
	for i := range spans {
		s := &spans[i]
		if s.req < 0 {
			continue
		}
		us := float64(s.end-s.start) / 1e3
		switch s.kind {
		case kClient:
			get(s.req).client = s
		case kHandler:
			get(s.req).handler = s
		case kStoreGet, kStoreList, kStorePut:
			r := get(s.req)
			r.children = append(r.children, s.interval())
			switch s.kind {
			case kStoreGet:
				r.gets++
				getUs = append(getUs, us)
			case kStoreList:
				listUs = append(listUs, us)
			case kStorePut:
				putUs = append(putUs, us)
			}
		}
	}

	var handler, self, outside, respBytes [numOps][]float64
	var gets, disclosures int
	for i, r := range byReq {
		if r.handler == nil {
			continue
		}
		op := sched[i].op
		h := r.handler
		handler[op] = append(handler[op], float64(h.end-h.start)/1e3)
		self[op] = append(self[op], float64(selfTime(h.interval(), r.children))/1e3)
		respBytes[op] = append(respBytes[op], float64(h.bytes))
		if r.client != nil {
			outside[op] = append(outside[op], float64((r.client.end-r.client.start)-(h.end-h.start))/1e3)
		}
		if op == opDisclose {
			disclosures++
			gets += r.gets
		}
	}
	out := map[string]float64{}
	for op := range numOps {
		out["httpapi.handler_us."+opNames[op]] = orZero(quantile(handler[op], 0.5))
	}
	out["httpapi.outside_us.disclose"] = orZero(quantile(outside[opDisclose], 0.5))
	out["httpapi.resp_bytes.disclose"] = orZero(quantile(respBytes[opDisclose], 0.5))
	out["httpapi.resp_bytes.stream"] = orZero(quantile(respBytes[opStream], 0.5))
	out["phr.self_us.disclose"] = orZero(quantile(self[opDisclose], 0.5))
	out["phr.self_us.stream"] = orZero(quantile(self[opStream], 0.5))
	out["store.get_us"] = orZero(quantile(getUs, 0.5))
	out["store.get_calls_per_disclose"] = float64(gets) / float64(max(1, disclosures))
	out["store.list_us"] = orZero(quantile(listUs, 0.5))
	out["store.put_us"] = orZero(quantile(putUs, 0.5))
	out["store.put_p99_us"] = orZero(quantile(putUs, 0.99))
	return out
}

// orZero maps the NaN of an empty sample to 0, so that a metric whose
// layer saw no traffic still reads as a number.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
