package main

import (
	"fmt"
	"math"

	"opendesc/internal/nicsim"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

// traceSet is a workload's generated input: the packets the program
// receives, plus what the benchmark alone knows about them (golden metadata,
// owning tenant).
type traceSet struct {
	pkts     [][]byte
	tenantOf []int
	golden   map[string][]uint64
}

func genTrace(w *workloadSpec, seed int64) (*traceSet, error) {
	ts := &traceSet{golden: make(map[string][]uint64)}
	t := w.Trace
	switch t.Generator {
	case "mix":
		tr, err := workload.Generate(workload.Spec{
			Packets: t.Packets, Flows: t.Flows, PayloadBytes: t.PayloadBytes,
			TCPFraction: t.TCPFraction, VLANFraction: t.VLANFraction,
			TunnelFraction: t.TunnelFraction, BadCsumFraction: t.BadCsumFraction,
			KVFraction: t.KVFraction, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		ts.pkts = tr.Packets
	case "zipf":
		tr, err := workload.GenerateZipf(workload.ZipfSpec{
			Packets: t.Packets, Flows: t.Flows, Skew: t.Skew,
			Tenants: w.Tenants.Count, PayloadBytes: t.PayloadBytes, Seed: uint64(seed),
		})
		if err != nil {
			return nil, err
		}
		ts.pkts, ts.tenantOf = tr.Packets, tr.TenantOf
	default:
		return nil, fmt.Errorf("unknown trace generator %q", t.Generator)
	}
	soft := softnic.Funcs()
	for _, sem := range w.readSemantics() {
		if sem == string(semantics.Timestamp) {
			continue // golden comes from the device clock, see field.want
		}
		fn := soft[semantics.Name(sem)]
		if fn == nil {
			return nil, fmt.Errorf("no SoftNIC golden function for %q", sem)
		}
		g := make([]uint64, len(ts.pkts))
		for i, p := range ts.pkts {
			g[i] = fn(p)
		}
		ts.golden[sem] = g
	}
	return ts, nil
}

// readSemantics is every semantic the workload's handlers read.
func (w *workloadSpec) readSemantics() []string {
	seen := map[string]bool{}
	var out []string
	add := func(sets [][]string) {
		for _, set := range sets {
			for _, s := range set {
				if !seen[s] {
					seen[s] = true
					out = append(out, s)
				}
			}
		}
	}
	add(w.Reads)
	if w.Tenants != nil {
		add(w.Tenants.Profiles)
	}
	return out
}

// tsStep is the simulated device clock advance per accepted packet.
var tsStep = nicsim.Config{}.WithDefaults().TimestampStep

// field is one metadata read the handler performs. hw is decided once at
// set-up from the compile result, never per call.
type field struct {
	sem  string
	hw   bool
	mask uint64
	gold []uint64 // nil for timestamp
}

func widthMask(bits int) uint64 {
	if bits <= 0 || bits >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(bits) - 1
}

// seqFIFO is the order a queue must deliver its accepted packets in.
type seqFIFO struct {
	buf        []uint64
	head, size int
}

func (f *seqFIFO) push(s uint64) {
	if f.size == len(f.buf) {
		nb := make([]uint64, 2*len(f.buf)+64)
		for i := 0; i < f.size; i++ {
			nb[i] = f.buf[(f.head+i)%len(f.buf)]
		}
		f.buf, f.head = nb, 0
	}
	f.buf[(f.head+f.size)%len(f.buf)] = s
	f.size++
}

func (f *seqFIFO) pop() (uint64, bool) {
	if f.size == 0 {
		return 0, false
	}
	s := f.buf[f.head]
	f.head = (f.head + 1) % len(f.buf)
	f.size--
	return s, true
}

// dueSlots bounds the packets in flight whose intended send time is kept.
const dueSlots = 1 << 16

// harness is the benchmark's side of one session: the generator state, the
// exactly-once/in-order bookkeeping, and the golden comparison.
type harness struct {
	ts      *traceSet
	queueOf []int // expected RSS shard per trace packet (nil: one queue)
	fifo    []seqFIFO
	sent    uint64
	tr      *tracer // non-nil while a traced slice runs

	due []int64 // intended send time by seq % dueSlots
	lat *hist   // this latency window's samples; nil outside the open loop

	checking bool // compare every read against the golden value
	hostNs   int64
	sink     uint64

	delivered, refused, misordered, mismatched, lost uint64
	firstErr                                         string
}

func newHarness(ts *traceSet, queues int) *harness {
	return &harness{ts: ts, fifo: make([]seqFIFO, queues), due: make([]int64, dueSlots)}
}

func (h *harness) failed() uint64 { return h.refused + h.misordered + h.mismatched + h.lost }

func (h *harness) fail(format string, args ...any) {
	if h.firstErr == "" {
		h.firstErr = fmt.Sprintf(format, args...)
	}
}

// send offers the next trace packet to the program's Rx.
func (h *harness) send(s session) {
	seq := h.sent
	h.sent++
	i := seq % uint64(len(h.ts.pkts))
	var ok bool
	if h.tr != nil {
		h.tr.begin(kRx, uint32(seq))
		ok = s.rx(h.ts.pkts[i])
		h.tr.end()
	} else {
		ok = s.rx(h.ts.pkts[i])
	}
	if !ok {
		h.refused++
		h.fail("packet %d refused by Rx", seq)
		return
	}
	q := 0
	if h.queueOf != nil {
		q = h.queueOf[i]
	}
	h.fifo[q].push(seq)
}

// deliver accounts one packet handed to the handler from queue q and
// returns its sequence number: the queue's oldest accepted packet, which it
// must be.
func (h *harness) deliver(q int, p []byte) uint64 {
	seq, ok := h.fifo[q].pop()
	if !ok {
		h.misordered++
		h.fail("queue %d delivered a packet it never accepted", q)
		return 0
	}
	h.delivered++
	if &p[0] != &h.ts.pkts[seq%uint64(len(h.ts.pkts))][0] {
		h.misordered++
		h.fail("queue %d: packet %d delivered out of order or twice", q, seq)
	}
	if h.lat != nil {
		h.lat.record(now() - h.due[seq%dueSlots])
	}
	return seq
}

// settle counts every accepted packet still undelivered as lost.
func (h *harness) settle() {
	for q := range h.fifo {
		if n := h.fifo[q].size; n > 0 {
			h.lost += uint64(n)
			h.fail("queue %d: %d accepted packets never delivered", q, n)
			h.fifo[q] = seqFIFO{}
		}
	}
}

// check compares one read against the golden value. seq counts from 0 in
// a fresh session, so the device clock stamped packet seq at (seq+1)·step.
func (h *harness) check(f *field, seq, v uint64, ok bool) {
	if !ok {
		h.mismatched++
		h.fail("packet %d: %s not readable", seq, f.sem)
		return
	}
	if !h.checking {
		return
	}
	want := (seq + 1) * tsStep
	if f.gold != nil {
		want = f.gold[seq%uint64(len(f.gold))]
	}
	if f.hw {
		want &= f.mask
	}
	if v != want {
		h.mismatched++
		h.fail("packet %d: %s = %#x, golden %#x", seq, f.sem, v, want)
	}
}

type getter interface {
	Get(sem string) (uint64, bool)
}

// readFields performs the handler's reads of one delivered packet.
func readFields[M getter](h *harness, fs []field, seq uint64, m M) {
	tr := h.tr
	for i := range fs {
		f := &fs[i]
		var v uint64
		var ok bool
		if tr != nil {
			k := kGetSoft
			if f.hw {
				k = kGetHW
			}
			tr.begin(k, uint32(seq))
			v, ok = m.Get(f.sem)
			tr.end()
		} else {
			v, ok = m.Get(f.sem)
		}
		h.sink += v
		if h.checking || !ok {
			h.check(f, seq, v, ok)
		}
	}
}

// decodeAll decodes the trace once (for the tenant plane's RSS steering).
func decodeAll(pkts [][]byte) ([]pkt.Info, error) {
	out := make([]pkt.Info, len(pkts))
	for i, p := range pkts {
		if err := pkt.Decode(p, &out[i]); err != nil {
			return nil, fmt.Errorf("trace packet %d: %w", i, err)
		}
	}
	return out, nil
}
