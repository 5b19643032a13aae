package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"opendesc"
	"opendesc/internal/faults"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/semantics"
)

// session is one opened instance of the program under test, as the
// generator drives it: Rx is simulated hardware, poll is host time.
type session interface {
	rx(p []byte) bool
	// poll runs one host step (Poll, or the PollCore schedule) and adds the
	// time spent inside those calls to the harness's host time.
	poll() int
	pending() int
	// control runs between bursts (the tenant plane's renegotiation).
	control()
	// layers adds the program's own counters to the per-layer metrics.
	layers(m metricSet)
}

// opener opens a session for a harness; tests substitute their own.
type opener func(w *workloadSpec, h *harness, seed int64) (session, error)

func openSession(w *workloadSpec, h *harness, seed int64) (session, error) {
	if w.Tenants != nil {
		return openTenants(w, h)
	}
	return openDriver(w, h, seed)
}

// rxPoller is the Driver surface the benchmark drives.
type rxPoller[M getter] interface {
	Rx(packet []byte) bool
	Poll(h func(packet []byte, meta M)) int
	PendingPackets() int
}

type driverSession[M getter] struct {
	h       *harness
	drv     rxPoller[M]
	real    *opendesc.Driver // nil for a test double
	res     *opendesc.Result // the compile the read classification came from
	sets    [][]field
	phase   uint64
	handler func([]byte, M)
	pauses  []int64 // durations of the Polls that switched generations
}

func openDriver(w *workloadSpec, h *harness, seed int64) (session, error) {
	intent, err := opendesc.NewIntent("odbench", w.Semantics...)
	if err != nil {
		return nil, err
	}
	var opts opendesc.OpenOptions
	if w.Harden != "" {
		opts.Harden = &opendesc.HardenOptions{Deep: w.Harden == "deep"}
	}
	if w.PhasePackets > 0 {
		// Static w(s) costs keep the re-solve a function of the read mix
		// alone, so switchovers do not depend on this machine's shim speed.
		opts.Evolve = &opendesc.EvolveOptions{MinShimSamples: math.MaxUint64}
	}
	drv, err := opendesc.OpenWith(w.NIC, intent, opts)
	if err != nil {
		return nil, err
	}
	if f := w.Faults; f != nil {
		drv.InjectFaults(faults.New(faults.Plan{Seed: uint64(seed), CorruptP: f.Corrupt, DropP: f.Drop}))
	}
	return newDriverSession[opendesc.Meta](w, h, drv, drv, drv.Result), nil
}

func newDriverSession[M getter](w *workloadSpec, h *harness, drv rxPoller[M], real *opendesc.Driver, res *opendesc.Result) *driverSession[M] {
	s := &driverSession[M]{h: h, drv: drv, real: real, phase: w.PhasePackets}
	for _, set := range w.Reads {
		var fs []field
		for _, sem := range set {
			fs = append(fs, field{sem: sem, gold: h.ts.golden[sem]})
		}
		s.sets = append(s.sets, fs)
	}
	s.classify(res)
	s.handler = s.handle
	return s
}

// classify decides hardware vs shim for every read from a compile result.
func (s *driverSession[M]) classify(res *opendesc.Result) {
	s.res = res
	for _, fs := range s.sets {
		for i := range fs {
			fs[i].hw, fs[i].mask = false, math.MaxUint64
			if a := res.Accessor(semantics.Name(fs[i].sem)); a != nil && a.Hardware {
				fs[i].hw, fs[i].mask = true, widthMask(a.WidthBits)
			}
		}
	}
}

func (s *driverSession[M]) handle(p []byte, m M) {
	h := s.h
	if h.tr != nil {
		h.tr.begin(kHandler, 0)
	}
	seq := h.deliver(0, p)
	if h.tr != nil {
		h.tr.tag(uint32(seq))
	}
	fs := s.sets[0]
	if s.phase > 0 {
		fs = s.sets[(seq/s.phase)%uint64(len(s.sets))]
	}
	readFields(h, fs, seq, m)
	if h.tr != nil {
		h.tr.end()
	}
}

func (s *driverSession[M]) rx(p []byte) bool { return s.drv.Rx(p) }
func (s *driverSession[M]) pending() int     { return s.drv.PendingPackets() }
func (s *driverSession[M]) control()         {}

func (s *driverSession[M]) poll() int {
	h := s.h
	t0 := now()
	if h.tr != nil {
		h.tr.begin(kPoll, 0)
	}
	n := s.drv.Poll(s.handler)
	if h.tr != nil {
		h.tr.end()
	}
	d := now() - t0
	h.hostNs += d
	// An evolving driver publishes a new Result exactly when a Poll
	// completed a generation switchover.
	if s.real != nil && s.real.Result != s.res {
		s.pauses = append(s.pauses, d)
		s.classify(s.real.Result)
	}
	return n
}

func (s *driverSession[M]) layers(m metricSet) {
	if s.real == nil {
		return
	}
	h := s.h
	var dev nicsim.DeviceStats
	var hard opendesc.HardeningStats
	var evo opendesc.EvolveStats
	timeSnapshot(h, func() { dev = s.real.DeviceStats() })
	timeSnapshot(h, func() { hard = s.real.Hardening() })
	timeSnapshot(h, func() { evo = s.real.Evolution() })
	addDevice(m, dev)
	m.set("opendesc.quarantined", float64(hard.Quarantined))
	m.set("opendesc.soft_delivered", float64(hard.SoftDelivered))
	m.set("opendesc.resync_drops", float64(hard.ResyncDrops))
	m.set("evolve.switchovers", float64(evo.Switchovers))
	m.set("evolve.drained", float64(evo.PacketsDrained))
	m.set("evolve.switch_drops", float64(evo.SwitchDrops))
	if evo.SwitchDrops != 0 {
		h.lost += evo.SwitchDrops
		h.fail("%d packets dropped across switchovers", evo.SwitchDrops)
	}
	p50, pmax := medianMax(s.pauses)
	m.set("evolve.switchover_pause_p50_us", p50/1e3)
	m.set("evolve.switchover_pause_max_us", pmax/1e3)
}

// timeSnapshot times a counter-snapshot call as its own span.
func timeSnapshot(h *harness, f func()) {
	if h.tr != nil {
		h.tr.begin(kSnapshot, 0)
		defer h.tr.end()
	}
	f()
}

func addDevice(m metricSet, st nicsim.DeviceStats) {
	var off uint64
	for _, n := range st.Offloads {
		off += n
	}
	if st.RxPackets > 0 {
		m.set("nicsim.offloads_per_pkt", float64(off)/float64(st.RxPackets))
	}
	if st.Completions > 0 {
		m.set("nicsim.cmpt_bytes_per_pkt", float64(st.CompletionBytes)/float64(st.Completions))
	}
	m.set("ring.highwater", float64(st.Ring.HighWater))
	m.set("ring.full_stalls", float64(st.Ring.FullStalls))
	m.set("ring.empty_stalls", float64(st.Ring.EmptyStalls))
}

type tenantSession struct {
	h       *harness
	p       *opendesc.ServingPlane
	t       *tenantSpec
	names   []string
	fields  [][]field // per tenant
	polls   uint64
	nextNeg uint64
	negs    int
	negNs   []int64
	handler func(opendesc.TenantDelivery)
}

func openTenants(w *workloadSpec, h *harness) (session, error) {
	t := w.Tenants
	specs := make([]opendesc.TenantSpec, t.Count)
	s := &tenantSession{h: h, t: t, nextNeg: t.RenegotiateEvery}
	for i := range specs {
		specs[i] = opendesc.TenantSpec{Name: fmt.Sprintf("tenant%02d", i), Semantics: t.Profiles[i%len(t.Profiles)]}
		s.names = append(s.names, specs[i].Name)
		var fs []field
		for _, sem := range specs[i].Semantics {
			fs = append(fs, field{sem: sem, gold: h.ts.golden[sem]})
		}
		s.fields = append(s.fields, fs)
	}
	p, err := opendesc.OpenTenants(opendesc.TenantOptions{NIC: w.NIC, Cores: t.Cores}, specs...)
	if err != nil {
		return nil, err
	}
	s.p = p
	h.fifo = make([]seqFIFO, t.Cores)
	if len(h.ts.pkts) > 0 {
		infos, err := decodeAll(h.ts.pkts)
		if err != nil {
			return nil, err
		}
		h.queueOf = make([]int, len(infos))
		for i := range infos {
			h.queueOf[i] = p.Steer(&infos[i])
		}
	}
	s.classify()
	s.handler = s.handle
	return s, nil
}

// classify decides hardware vs shim per tenant read from the joint compile.
func (s *tenantSession) classify() {
	jr := s.p.Joint()
	for ti, fs := range s.fields {
		res := jr.PerTenant[ti]
		for i := range fs {
			fs[i].hw, fs[i].mask = false, math.MaxUint64
			if a := res.Accessor(semantics.Name(fs[i].sem)); a != nil && a.Hardware {
				fs[i].hw, fs[i].mask = true, widthMask(a.WidthBits)
			}
		}
	}
}

func (s *tenantSession) rx(p []byte) bool { return s.p.Rx(p) }
func (s *tenantSession) pending() int     { return s.p.Pending() }

// poll runs an uneven schedule: core 0 polls every step, the other cores
// every second step, and on the steps between core 0 polls again and, its
// own queue being empty, steals from the busiest sibling.
func (s *tenantSession) poll() int {
	s.polls++
	n := s.pollCore(0)
	if s.polls%2 == 1 {
		for c := 1; c < s.t.Cores; c++ {
			n += s.pollCore(c)
		}
	} else {
		n += s.pollCore(0)
	}
	return n
}

func (s *tenantSession) pollCore(c int) int {
	h := s.h
	t0 := now()
	if h.tr != nil {
		h.tr.begin(kPollCore, 0)
	}
	n := s.p.PollCore(c, s.handler)
	if h.tr != nil {
		h.tr.end()
	}
	h.hostNs += now() - t0
	return n
}

func (s *tenantSession) handle(d opendesc.TenantDelivery) {
	h := s.h
	if h.tr != nil {
		h.tr.begin(kHandler, 0)
	}
	seq := h.deliver(d.Queue, d.Pkt)
	if h.tr != nil {
		h.tr.tag(uint32(seq))
	}
	if want := h.ts.tenantOf[seq%uint64(len(h.ts.tenantOf))]; d.Tenant != want {
		h.misordered++
		h.fail("packet %d delivered to tenant %d, belongs to %d", seq, d.Tenant, want)
	}
	// The same loop as readFields: passing &d through a type parameter
	// would move every delivery to the heap.
	fs := s.fields[d.Tenant]
	tr := h.tr
	for i := range fs {
		f := &fs[i]
		if h.checking {
			// A completion parked across a switchover is read under the
			// layout it was written with: take the width from the delivery.
			f.hw, f.mask = d.Hardware(f.sem), widthMask(d.Width(f.sem))
		}
		var v uint64
		var ok bool
		if tr != nil {
			k := kGetSoft
			if f.hw {
				k = kGetHW
			}
			tr.begin(k, uint32(seq))
			v, ok = d.Get(f.sem)
			tr.end()
		} else {
			v, ok = d.Get(f.sem)
		}
		h.sink += v
		if h.checking || !ok {
			h.check(f, seq, v, ok)
		}
	}
	if tr != nil {
		tr.end()
	}
}

// control renegotiates one tenant's intent every RenegotiateEvery packets,
// alternating between the configured intents.
func (s *tenantSession) control() {
	h := s.h
	if h.sent < s.nextNeg {
		return
	}
	s.nextNeg += s.t.RenegotiateEvery
	to := s.t.RenegotiateTo[s.negs%len(s.t.RenegotiateTo)]
	s.negs++
	t0 := now()
	if h.tr != nil {
		h.tr.begin(kControl, 0)
	}
	err := s.p.Renegotiate(s.names[s.t.RenegotiateTenant], to...)
	if h.tr != nil {
		h.tr.end()
	}
	s.negNs = append(s.negNs, now()-t0)
	if err != nil {
		h.mismatched++
		h.fail("renegotiate %s: %v", s.names[s.t.RenegotiateTenant], err)
	}
	s.classify()
}

func (s *tenantSession) layers(m metricSet) {
	h := s.h
	var st opendesc.PlaneStats
	timeSnapshot(h, func() { st = s.p.Stats() })
	m.set("tenant.steals", float64(st.Steals))
	// Offered per tenant: every full pass over the trace, plus the prefix
	// of the pass in progress.
	offered := make([]float64, len(st.Tenants))
	n := uint64(len(h.ts.tenantOf))
	for i, t := range h.ts.tenantOf {
		c := h.sent / n
		if uint64(i) < h.sent%n {
			c++
		}
		offered[t] += float64(c)
	}
	shares := make([]float64, len(st.Tenants))
	for i, t := range st.Tenants {
		shares[i] = 1
		if offered[i] > 0 {
			shares[i] = float64(t.Delivered) / offered[i]
		}
	}
	m.set("tenant.fairness", opendesc.JainFairness(shares))
	p50, _ := medianMax(s.negNs)
	m.set("tenant.renegotiate_us", p50/1e3)

	// The plane exposes its per-queue devices only through the metrics
	// registry; sum the queues back into one device view.
	reg := obs.NewRegistry()
	s.p.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WriteVars(&buf); err != nil {
		h.fail("tenant metrics: %v", err)
		return
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		h.fail("tenant metrics: %v", err)
		return
	}
	var dev nicsim.DeviceStats
	dev.Offloads = map[semantics.Name]uint64{}
	for k, raw := range vars {
		name := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			name = k[:i]
		}
		var v float64
		if json.Unmarshal(raw, &v) != nil {
			var g struct{ Value float64 }
			if json.Unmarshal(raw, &g) != nil {
				continue
			}
			v = g.Value
		}
		switch name {
		case "opendesc_dev_rx_packets_total":
			dev.RxPackets += uint64(v)
			dev.Completions += uint64(v)
		case "opendesc_dev_completion_bytes_total":
			dev.CompletionBytes += uint64(v)
		case "opendesc_dev_offload_invocations_total":
			dev.Offloads[semantics.Name(k)] += uint64(v)
		case "opendesc_ring_full_stalls_total":
			dev.Ring.FullStalls += uint64(v)
		case "opendesc_ring_empty_stalls_total":
			dev.Ring.EmptyStalls += uint64(v)
		case "opendesc_ring_occupancy_highwater":
			if int(v) > dev.Ring.HighWater {
				dev.Ring.HighWater = int(v)
			}
		}
	}
	addDevice(m, dev)
}
