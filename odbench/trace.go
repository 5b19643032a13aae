package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"opendesc/internal/vclock"
)

// wallClock is the process wall clock through the repository's clock
// abstraction, the only sanctioned way to read time outside the
// measurement packages.
var wallClock = vclock.Wall()

// now is the benchmark's single monotonic clock, in ns since start.
func now() int64 { return int64(wallClock.Now()) }

// spanKind names the layer a span's self time is charged to.
type spanKind uint8

const (
	kBurst    spanKind = iota // loadgen: one generator iteration (the root)
	kRx                       // nicsim: Driver.Rx / Plane.Rx
	kPoll                     // opendesc: Driver.Poll
	kPollCore                 // tenant: Plane.PollCore
	kHandler                  // app: the handler minus its reads
	kGetHW                    // codegen: Get served from the completion
	kGetSoft                  // softnic: Get served by a shim
	kControl                  // tenant.Renegotiate
	kSnapshot                 // Stats/Hardening/Evolution snapshots
	numKinds
)

var kindNames = [numKinds]string{
	"loadgen.burst", "nicsim.rx", "opendesc.poll", "tenant.poll", "app.handler",
	"codegen.get", "softnic.get", "tenant.renegotiate", "snapshot",
}

type span struct {
	ID, Parent int32
	Kind       spanKind
	Seq        uint32
	Start, End int64
}

type openSpan struct {
	id    int32
	kind  spanKind
	seq   uint32
	start int64
}

// tracer records spans from the benchmark's own calls into each layer. Self
// time is charged at span end: a span adds its duration to its own kind and
// subtracts it from its parent's, so per-kind self times sum exactly to the
// root spans' total and the gap to wall time is what no span covered.
type tracer struct {
	stack  []openSpan
	kept   []span // the first spans of the run, dumped at exit
	nextID int32

	self  [numKinds]int64
	count [numKinds]int64
	roots int64
	rxNs  []int32 // Rx durations, for the median
}

func newTracer(keep int) *tracer {
	return &tracer{
		stack: make([]openSpan, 0, 16),
		kept:  make([]span, 0, keep),
		rxNs:  make([]int32, 0, 1<<20),
	}
}

func (t *tracer) begin(k spanKind, seq uint32) {
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, kind: k, seq: seq, start: now()})
}

// tag sets the packet sequence id of the innermost open span.
func (t *tracer) tag(seq uint32) { t.stack[len(t.stack)-1].seq = seq }

func (t *tracer) end() {
	te := now()
	top := len(t.stack) - 1
	o := t.stack[top]
	t.stack = t.stack[:top]
	d := te - o.start
	t.self[o.kind] += d
	t.count[o.kind]++
	parent := int32(0)
	if top > 0 {
		p := t.stack[top-1]
		t.self[p.kind] -= d
		parent = p.id
	} else {
		t.roots += d
	}
	if o.kind == kRx && len(t.rxNs) < cap(t.rxNs) {
		t.rxNs = append(t.rxNs, int32(d))
	}
	if len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, span{ID: o.id, Parent: parent, Kind: o.kind, Seq: o.seq, Start: o.start, End: te})
	}
}

// writeChrome dumps the kept spans as a Chrome/Perfetto trace.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, `{"traceEvents":[`)
	for i, s := range t.kept {
		ev := map[string]any{
			"name": kindNames[s.Kind], "ph": "X", "pid": 1, "tid": 1,
			"ts": float64(s.Start) / 1e3, "dur": float64(s.End-s.Start) / 1e3,
			"args": map[string]any{"id": s.ID, "parent": s.Parent, "seq": s.Seq},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(b)
		if i < len(t.kept)-1 {
			w.WriteString(",")
		}
		w.WriteString("\n")
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
