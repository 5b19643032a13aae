package main

import (
	"runtime"
	"runtime/metrics"
)

// burstStep is one generator iteration of the closed loop: Rx a burst,
// run the control hook, then Poll. meter, when set, attributes heap
// allocations to the Rx calls and to the Poll calls.
func burstStep(h *harness, s session, burst int, meter *allocMeter) {
	if h.tr != nil {
		h.tr.begin(kBurst, uint32(h.sent))
	}
	var a0 uint64
	if meter != nil {
		a0 = meter.read()
	}
	for j := 0; j < burst; j++ {
		h.send(s)
	}
	if meter != nil {
		a1 := meter.read()
		meter.rx += a1 - a0
		meter.rxPkts += uint64(burst)
	}
	s.control()
	if meter != nil {
		a0 = meter.read()
		d0 := h.delivered
		s.poll()
		meter.poll += meter.read() - a0
		meter.polled += h.delivered - d0
	} else {
		s.poll()
	}
	if h.tr != nil {
		h.tr.end()
	}
}

// drain polls until every accepted packet is delivered (or the program
// stops making progress, which settle then reports as loss).
func drain(h *harness, s session) {
	for idle := 0; s.pending() > 0 && idle < 1000; {
		if s.poll() == 0 {
			idle++
		} else {
			idle = 0
		}
	}
}

// allocMeter reads the runtime's cumulative heap-object count, which unlike
// ReadMemStats does not stop the world.
type allocMeter struct {
	sample                   []metrics.Sample
	rx, rxPkts, poll, polled uint64
}

func newAllocMeter() *allocMeter {
	return &allocMeter{sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (m *allocMeter) read() uint64 {
	metrics.Read(m.sample)
	return m.sample[0].Value.Uint64()
}

type sliceKind int

const (
	slicePlain   sliceKind = iota
	sliceTraced            // spans around every call
	sliceMetered           // allocation attribution to Rx and Poll
)

type sliceStat struct {
	kind    sliceKind
	pkts    uint64
	wallNs  int64
	hostNs  int64
	rootNs  int64 // traced slices: wall time the root spans cover
	mallocs uint64
}

// closedLoop runs n slices of sliceNs each. With a tracer, slices rotate
// plain → traced → metered, so the traced numbers and their untraced
// baseline come from interleaved stretches of the same run.
func closedLoop(h *harness, s session, burst int, sliceNs int64, n int, tr *tracer, meter *allocMeter) []sliceStat {
	out := make([]sliceStat, 0, n)
	var ms runtime.MemStats
	for i := 0; i < n; i++ {
		kind := slicePlain
		if tr != nil {
			kind = sliceKind(i % 3)
		}
		var m *allocMeter
		var r0 int64
		switch kind {
		case sliceTraced:
			h.tr, r0 = tr, tr.roots
		case sliceMetered:
			m = meter
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		d0, host0 := h.delivered, h.hostNs
		t0 := now()
		for now()-t0 < sliceNs {
			burstStep(h, s, burst, m)
		}
		wall := now() - t0
		var roots int64
		if kind == sliceTraced {
			roots = tr.roots - r0
		}
		h.tr = nil
		runtime.ReadMemStats(&ms)
		out = append(out, sliceStat{
			kind: kind, pkts: h.delivered - d0, wallNs: wall,
			hostNs: h.hostNs - host0, rootNs: roots, mallocs: ms.Mallocs - m0,
		})
	}
	return out
}

type openStat struct {
	p50, p99   []float64 // per latency window, ns
	samples    uint64
	late       hist // Rx call time minus intended send time
	backlogMax uint64
}

// openLoop offers packets at a fixed rate for durNs, each timed from its
// intended send time to handler entry, so a stall counts against every
// packet queued behind it. The generator sends due packets in bursts of at
// most burst, then polls; with nothing due it keeps polling. Latency is
// summarised per window of windowNs; a window with fewer than half its
// expected samples (the tail) is too thin for a p99 and is dropped.
func openLoop(h *harness, s session, burst int, rate float64, durNs, windowNs int64) *openStat {
	period := 1e9 / rate
	minSamples := uint64(float64(windowNs) / period / 2)
	st := &openStat{}
	h.lat = &hist{}
	cut := func() {
		if h.lat.n >= minSamples && h.lat.n > 0 {
			st.p50 = append(st.p50, h.lat.quantile(0.50))
			st.p99 = append(st.p99, h.lat.quantile(0.99))
		}
		st.samples += h.lat.n
		h.lat.reset()
	}
	start := now()
	winEnd := start + windowNs
	k := uint64(0)
	for {
		t := now()
		if t-start >= durNs {
			break
		}
		if t >= winEnd {
			cut()
			winEnd += windowNs
		}
		if backlog := uint64(float64(t-start)/period) + 1 - k; backlog > st.backlogMax && backlog < 1<<62 {
			st.backlogMax = backlog
		}
		for n := 0; n < burst; n++ {
			due := start + int64(float64(k)*period)
			if due > t {
				break
			}
			h.due[h.sent%dueSlots] = due
			st.late.record(now() - due)
			h.send(s)
			k++
		}
		s.control()
		s.poll()
	}
	drain(h, s)
	cut()
	h.lat = nil
	return st
}
