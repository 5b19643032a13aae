// Command odbench is the OpenDesc benchmark. It drives the public API from
// one goroutine over a trace generated from -seed, measures each layer
// from outside by timing calls into it, checks every delivery against
// golden metadata, and prints one JSON result line:
//
//	go build -o odbench . && ./odbench -workload hw-min -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 the
// per-layer metrics, from a run whose spans are written to -out. Workload
// parameters, including each fixed offered rate, are in workloads.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"opendesc"
	"opendesc/internal/nic"
)

// probeEnv makes the binary a set-up probe: open one session in this fresh
// process, report its cost, exit.
const probeEnv = "ODBENCH_SETUP_PROBE"

func main() {
	if wl := os.Getenv(probeEnv); wl != "" {
		if err := setupProbe(os.Stdout, wl); err != nil {
			fmt.Fprintln(os.Stderr, "odbench probe:", err)
			os.Exit(2)
		}
		return
	}
	var o runOptions
	flag.StringVar(&o.workload, "workload", "", "workload name (see workloads.json)")
	flag.Int64Var(&o.seed, "seed", 1, "trace and fault seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds (two thirds closed loop, one third open loop)")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "odbench"), "directory for the span dump")
	flag.Parse()
	o.traced = *trace == 1
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odbench:", err)
		os.Exit(2)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string
	open     opener // nil: the real program
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(o runOptions, log io.Writer) (*result, error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	w, err := spec.workload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	open := o.open
	if open == nil {
		open = openSession
	}
	m := metricSet{}
	if !o.traced {
		if err := probeSetup(spec, w, m); err != nil {
			return nil, err
		}
	}
	ts, err := genTrace(w, o.seed)
	if err != nil {
		return nil, err
	}

	// Correctness: one untimed pass over the whole trace in a fresh
	// session, every read compared against its golden value.
	hc := newHarness(ts, 1)
	hc.checking = true
	sc, err := open(w, hc, o.seed)
	if err != nil {
		return nil, err
	}
	for hc.sent < uint64(len(ts.pkts)) {
		burstStep(hc, sc, spec.Burst, nil)
	}
	drain(hc, sc)
	hc.settle()
	sc.layers(metricSet{})

	// Timed session.
	h := newHarness(ts, 1)
	s, err := open(w, h, o.seed)
	if err != nil {
		return nil, err
	}
	// Two thirds of the time go to the closed loop, whose throughput and
	// host cost move most with the machine; the open loop's median latency
	// settles within a few dozen windows.
	closedNs := int64(o.seconds * 1e9 * 2 / 3)
	openNs := int64(o.seconds*1e9) - closedNs
	sliceNs := int64(spec.SliceMs) * 1e6
	if sliceNs > closedNs/4 {
		sliceNs = closedNs / 4
	}
	closedLoop(h, s, spec.Burst, sliceNs, 1, nil, nil) // warm-up
	var tr *tracer
	var meter *allocMeter
	if o.traced {
		tr, meter = newTracer(spec.SpansKept), newAllocMeter()
	}
	slices := closedLoop(h, s, spec.Burst, sliceNs, int(closedNs/sliceNs), tr, meter)
	ol := openLoop(h, s, spec.Burst, w.OfferedPPS, openNs, int64(spec.LatencyWindowMs)*1e6)
	h.settle()
	if o.traced {
		h.tr = tr
	}
	s.layers(m)
	h.tr = nil

	attempted := hc.sent + h.sent
	failed := hc.failed() + h.failed()
	m.set("failed_frac", float64(failed)/float64(attempted))
	summarize(m, slices, ol)
	if o.traced {
		layerMetrics(m, slices, tr, meter)
		if err := compileTimes(spec, w, m); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.json", w.Name, o.seed))
		if err := tr.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "spans: %d kept of %d recorded, written to %s\n", len(tr.kept), tr.nextID, path)
	}
	correct := failed == 0
	if o.traced {
		if r := m["trace.layer_residual_frac"]; r > spec.LayerSum.Tolerance || r < -spec.LayerSum.Tolerance {
			correct = false
			fmt.Fprintf(log, "layer-sum check FAILED: residual %.4f outside ±%.2f\n", r, spec.LayerSum.Tolerance)
		}
	}
	report(log, w, o, m, hc, h, ol)
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	return &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m.render(defs)}, nil
}

// summarize derives the end-to-end metrics. Throughput and host cost are
// the slow-side quartile of the closed-loop slices (the rate sustained in
// three slices of four): on a shared machine, bursts of spare capacity make
// the fast side and the median move from run to run. Latency quantiles are
// medians over the open-loop windows, so the few windows a machine stall
// lands in do not set them.
func summarize(m metricSet, slices []sliceStat, ol *openStat) {
	var pps, host, allocs []float64
	for _, s := range slices {
		if s.kind != slicePlain || s.pkts == 0 {
			continue
		}
		pps = append(pps, float64(s.pkts)/(float64(s.wallNs)/1e9))
		host = append(host, float64(s.hostNs)/float64(s.pkts))
		allocs = append(allocs, float64(s.mallocs)/float64(s.pkts))
	}
	m.set("delivered_pps", quartile(pps, 1))
	m.set("host_ns_per_pkt", quartile(host, 3))
	m.set("allocs_per_pkt", median(allocs))
	m.set("deliver_p50_us", median(ol.p50)/1e3)
	m.set("deliver_p99_us", median(ol.p99)/1e3)
	m.set("loadgen.late_p99_us", ol.late.quantile(0.99)/1e3)
	m.set("loadgen.backlog_max", float64(ol.backlogMax))
}

// layerMetrics derives the per-layer metrics from the traced and metered
// slices, and checks that the layers' self times add back up to the traced
// wall time.
func layerMetrics(m metricSet, slices []sliceStat, tr *tracer, meter *allocMeter) {
	var tracedPkts uint64
	var tracedWall, roots int64
	var plainNs, tracedNs []float64
	for _, s := range slices {
		if s.pkts == 0 {
			continue
		}
		perPkt := float64(s.wallNs) / float64(s.pkts)
		switch s.kind {
		case slicePlain:
			plainNs = append(plainNs, perPkt)
		case sliceTraced:
			tracedNs = append(tracedNs, perPkt)
			tracedPkts += s.pkts
			tracedWall += s.wallNs
			roots += s.rootNs
		}
	}
	if tracedPkts == 0 {
		return
	}
	per := func(k spanKind) float64 { return float64(tr.self[k]) / float64(tracedPkts) }
	perCall := func(k spanKind) float64 {
		if tr.count[k] == 0 {
			return 0
		}
		return float64(tr.self[k]) / float64(tr.count[k])
	}
	rx := make([]int64, len(tr.rxNs))
	for i, d := range tr.rxNs {
		rx[i] = int64(d)
	}
	p50, _ := medianMax(rx)
	m.set("nicsim.rx_ns", p50)
	m.set("opendesc.poll_self_ns", per(kPoll))
	m.set("tenant.poll_self_ns", per(kPollCore))
	m.set("app.handler_self_ns", per(kHandler))
	m.set("codegen.get_hw_ns", perCall(kGetHW))
	m.set("codegen.hw_gets_per_pkt", float64(tr.count[kGetHW])/float64(tracedPkts))
	m.set("softnic.get_soft_ns", perCall(kGetSoft))
	m.set("softnic.soft_gets_per_pkt", float64(tr.count[kGetSoft])/float64(tracedPkts))
	m.set("loadgen.self_ns", per(kBurst))
	m.set("trace.sim_ns_per_pkt", per(kRx))
	m.set("trace.host_ns_per_pkt", per(kPoll)+per(kPollCore)+per(kHandler)+per(kGetHW)+per(kGetSoft))
	m.set("trace.layer_residual_frac", float64(tracedWall-roots)/float64(tracedWall))
	m.set("trace.overhead_frac", median(tracedNs)/median(plainNs)-1)
	if n := tr.count[kSnapshot]; n > 0 {
		m.set("snapshot_us", float64(tr.self[kSnapshot])/float64(n)/1e3)
	}
	if meter.rxPkts > 0 {
		m.set("nicsim.rx_allocs_per_pkt", float64(meter.rx)/float64(meter.rxPkts))
	}
	if meter.polled > 0 {
		name := "opendesc.poll_allocs_per_pkt"
		if tr.count[kPollCore] > 0 {
			name = "tenant.poll_allocs_per_pkt"
		}
		m.set(name, float64(meter.poll)/float64(meter.polled))
	}
}

// compileTimes times the compiler on the workload's NIC and intent: from
// P4 source, and against the cached model (the re-solve switchovers run).
func compileTimes(spec *benchSpec, w *workloadSpec, m metricSet) error {
	sems := w.Semantics
	if w.Tenants != nil {
		sems = w.Tenants.Profiles[0]
	}
	intent, err := opendesc.NewIntent("odbench", sems...)
	if err != nil {
		return err
	}
	model, err := nic.Load(w.NIC)
	if err != nil {
		return err
	}
	var joint []opendesc.TenantIntent
	if t := w.Tenants; t != nil {
		for i := 0; i < t.Count; i++ {
			ti, err := opendesc.NewIntent(fmt.Sprintf("tenant%02d", i), t.Profiles[i%len(t.Profiles)]...)
			if err != nil {
				return err
			}
			joint = append(joint, opendesc.TenantIntent{Tenant: ti.Name, Intent: ti, Weight: 1})
		}
	}
	var p4, cached []int64
	for r := 0; r < spec.CompileRounds; r++ {
		t0 := now()
		if _, err := opendesc.CompileP4(w.NIC, model.Source, intent, opendesc.CompileOptions{}); err != nil {
			return err
		}
		t1 := now()
		if joint != nil {
			_, err = opendesc.CompileJoint(w.NIC, joint, opendesc.CompileOptions{})
		} else {
			_, err = opendesc.Compile(w.NIC, intent, opendesc.CompileOptions{})
		}
		if err != nil {
			return err
		}
		p4, cached = append(p4, t1-t0), append(cached, now()-t1)
	}
	a, _ := medianMax(p4)
	b, _ := medianMax(cached)
	m.set("core.compile_p4_us", a/1e3)
	m.set("core.compile_us", b/1e3)
	return nil
}

// probeSetup measures set-up the way a fresh process pays it: each probe
// is a new process of this binary that opens one session and exits.
func probeSetup(spec *benchSpec, w *workloadSpec, m metricSet) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var secs, heap []float64
	for i := 0; i < spec.SetupProbes; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), probeEnv+"="+w.Name)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("setup probe: %w", err)
		}
		var p probeResult
		if err := json.Unmarshal(out, &p); err != nil {
			return fmt.Errorf("setup probe output %q: %w", out, err)
		}
		secs, heap = append(secs, p.SetupS), append(heap, p.HeapMiB)
	}
	m.set("setup_s", median(secs))
	m.set("setup_heap_mb", median(heap))
	return nil
}

type probeResult struct {
	SetupS  float64 `json:"setup_s"`
	HeapMiB float64 `json:"heap_mib"`
}

func setupProbe(out io.Writer, name string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	w, err := spec.workload(name)
	if err != nil {
		return err
	}
	h := newHarness(&traceSet{}, 1)
	// Pre-fault heap pages, so the figure is the program's set-up work
	// and not the host's page-fault latency, which moved the median of a
	// batch of probes by up to 30% from one batch to the next.
	warm := make([]byte, 32<<20)
	for i := 0; i < len(warm); i += 4096 {
		warm[i] = 1
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	t0 := now()
	s, err := openSession(w, h, 1)
	if err != nil {
		return err
	}
	dt := now() - t0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(s)
	return json.NewEncoder(out).Encode(probeResult{
		SetupS:  float64(dt) / 1e9,
		HeapMiB: (float64(ms.HeapAlloc) - float64(before)) / (1 << 20),
	})
}

func report(log io.Writer, w *workloadSpec, o runOptions, m metricSet, hc, h *harness, ol *openStat) {
	fmt.Fprintf(log, "odbench %s seed=%d seconds=%g traced=%v offered=%.0f pkt/s\n",
		w.Name, o.seed, o.seconds, o.traced, w.OfferedPPS)
	fmt.Fprintf(log, "correctness pass: %d sent, %d delivered, %d failed\n", hc.sent, hc.delivered, hc.failed())
	fmt.Fprintf(log, "timed session: %d sent, %d delivered, %d failed (refused %d, misordered %d, mismatched %d, lost %d)\n",
		h.sent, h.delivered, h.failed(), h.refused, h.misordered, h.mismatched, h.lost)
	for _, e := range []string{hc.firstErr, h.firstErr} {
		if e != "" {
			fmt.Fprintln(log, "first failure:", e)
		}
	}
	fmt.Fprintf(log, "open loop: %d latency samples in %d windows\n", ol.samples, len(ol.p99))
	defs := append(append([]metricDef{}, endToEnd...), perLayer...)
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Fprintf(log, "  %-32s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}
