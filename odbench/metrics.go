package main

import (
	"math"
	"math/bits"
	"sort"
)

// endToEnd and perLayer are the metrics a run prints, with their units;
// BENCHMARK.json declares the same names (checked by the tests).
var endToEnd = []metricDef{
	{"delivered_pps", "pkt/s"},
	{"host_ns_per_pkt", "ns"},
	{"deliver_p50_us", "us"},
	{"setup_s", "s"},
	{"setup_heap_mb", "MiB"},
}

var perLayer = []metricDef{
	{"nicsim.rx_ns", "ns"},
	{"nicsim.offloads_per_pkt", "count"},
	{"nicsim.rx_allocs_per_pkt", "allocs"},
	{"nicsim.cmpt_bytes_per_pkt", "B"},
	{"ring.highwater", "count"},
	{"ring.full_stalls", "count"},
	{"ring.empty_stalls", "count"},
	{"opendesc.poll_self_ns", "ns"},
	{"opendesc.poll_allocs_per_pkt", "allocs"},
	{"opendesc.quarantined", "count"},
	{"opendesc.soft_delivered", "count"},
	{"opendesc.resync_drops", "count"},
	{"codegen.get_hw_ns", "ns"},
	{"codegen.hw_gets_per_pkt", "count"},
	{"softnic.get_soft_ns", "ns"},
	{"softnic.soft_gets_per_pkt", "count"},
	{"evolve.switchover_pause_p50_us", "us"},
	{"evolve.switchover_pause_max_us", "us"},
	{"evolve.switchovers", "count"},
	{"evolve.drained", "count"},
	{"evolve.switch_drops", "count"},
	{"tenant.poll_self_ns", "ns"},
	{"tenant.poll_allocs_per_pkt", "allocs"},
	{"tenant.renegotiate_us", "us"},
	{"tenant.steals", "count"},
	{"tenant.fairness", "ratio"},
	{"core.compile_p4_us", "us"},
	{"core.compile_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.self_ns", "ns"},
	{"app.handler_self_ns", "ns"},
	{"trace.sim_ns_per_pkt", "ns"},
	{"trace.host_ns_per_pkt", "ns"},
	{"trace.layer_residual_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"snapshot_us", "us"},
	{"deliver_p99_us", "us"},
	{"allocs_per_pkt", "allocs"},
	{"failed_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// metricSet collects a run's measured values by name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render keeps exactly the defined metrics; one a layer did not produce on
// this workload reads 0.
func (m metricSet) render(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartile returns the k-th quartile (1: lower, 3: upper), interpolated
// as Python's statistics.quantiles(xs, n=4) does.
func quartile(xs []float64, k int) float64 {
	if len(xs) < 2 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(k) * float64(len(s)+1) / 4
	i := int(pos)
	if i < 1 {
		return s[0]
	}
	if i >= len(s) {
		return s[len(s)-1]
	}
	return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
}

// medianMax returns the nearest-rank median and the maximum.
func medianMax(xs []int64) (p50, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[(len(s)-1)/2]), float64(s[len(s)-1])
}

// hist is a log-linear latency histogram: 64 buckets per octave above
// 128 ns, so a quantile is within 1.6% of the sample it stands for, and
// recording never allocates.
type hist struct {
	counts [2048]uint64
	n      uint64
}

const histSubBits = 7

func histIndex(v int64) int {
	if v < 1<<histSubBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	s := bits.Len64(uint64(v)) - histSubBits
	i := s<<(histSubBits-1) + int(v>>uint(s))
	if i >= len(hist{}.counts) {
		return len(hist{}.counts) - 1
	}
	return i
}

// histBounds returns the value range [lo, lo+width) bucket i covers.
func histBounds(i int) (lo, width float64) {
	if i < 1<<histSubBits {
		return float64(i), 1
	}
	s := i>>(histSubBits-1) - 1
	m := i - s<<(histSubBits-1)
	return float64(int64(m) << uint(s)), float64(int64(1) << uint(s))
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) reset() { *h = hist{} }

// quantile interpolates linearly inside the bucket holding rank q·n.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := histBounds(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(len(h.counts) - 1)
	return lo + w
}
