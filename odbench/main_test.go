package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"opendesc"
	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

func TestMain(m *testing.M) {
	// Set-up probes re-execute the running binary, which here is the test.
	if wl := os.Getenv(probeEnv); wl != "" {
		if err := setupProbe(os.Stdout, wl); err != nil {
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testDriver is a minimal Rx → pending → consume driver over the simulated
// device whose accessor runtime the test controls.
type testDriver struct {
	dev     *nicsim.Device
	rt      *codegen.Runtime
	pending [][]byte
}

type testMeta struct {
	rt        *codegen.Runtime
	cmpt, pkt []byte
}

func (m testMeta) Get(sem string) (uint64, bool) {
	r := m.rt.Reader(semantics.Name(sem))
	if r == nil || !r.Linked() {
		return 0, false
	}
	return r.Read(m.cmpt, m.pkt), true
}

func (d *testDriver) Rx(p []byte) bool {
	if !d.dev.RxPacket(p) {
		return false
	}
	d.pending = append(d.pending, p)
	return true
}

func (d *testDriver) Poll(h func([]byte, testMeta)) int {
	n := 0
	for n < len(d.pending) {
		p := d.pending[n]
		if !d.dev.CmptRing.Consume(func(c []byte) { h(p, testMeta{rt: d.rt, cmpt: c, pkt: p}) }) {
			break
		}
		n++
	}
	d.pending = d.pending[:copy(d.pending, d.pending[n:])]
	return n
}

func (d *testDriver) PendingPackets() int { return len(d.pending) }

// testOpener opens a testDriver; with breakOne it mis-offsets the first
// hardware accessor by one bit, as diffverify's BreakAccessor ablation does.
func testOpener(breakOne bool) opener {
	return func(w *workloadSpec, h *harness, seed int64) (session, error) {
		intent, err := opendesc.NewIntent("odbench", w.Semantics...)
		if err != nil {
			return nil, err
		}
		res, err := opendesc.Compile(w.NIC, intent, opendesc.CompileOptions{})
		if err != nil {
			return nil, err
		}
		dev, err := nicsim.New(nic.MustLoad(w.NIC), nicsim.Config{})
		if err != nil {
			return nil, err
		}
		if err := dev.ApplyConfig(res.Config); err != nil {
			return nil, err
		}
		rtRes := *res
		rtRes.Accessors = append([]core.Accessor(nil), res.Accessors...)
		if breakOne {
			for i := range rtRes.Accessors {
				if a := &rtRes.Accessors[i]; a.Hardware {
					if a.OffsetBits+a.WidthBits < rtRes.CompletionBytes()*8 {
						a.OffsetBits++
					} else {
						a.OffsetBits--
					}
					break
				}
			}
		}
		drv := &testDriver{dev: dev, rt: codegen.NewRuntime(&rtRes, softnic.Funcs())}
		return newDriverSession[testMeta](w, h, drv, nil, res), nil
	}
}

func TestWrongAccessorOffsetFailsTheRun(t *testing.T) {
	for _, broken := range []bool{false, true} {
		res, err := run(runOptions{workload: "hw-min", seed: 3, seconds: 0.4, out: t.TempDir(), open: testOpener(broken)}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if broken {
			if res.Correct || res.Failed == 0 {
				t.Fatalf("mis-offset accessor: correct=%v failed=%d, want a failed run", res.Correct, res.Failed)
			}
			continue
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("intact accessor: correct=%v failed=%d, want a clean run", res.Correct, res.Failed)
		}
	}
}

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestShortRunsEmitDeclaredMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(spec.Workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, workloads.json %d", len(d.Workloads), len(spec.Workloads))
	}
	for _, w := range d.Workloads {
		for _, traced := range []bool{false, true} {
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			res, err := run(runOptions{workload: w.Name, seed: 5, seconds: 0.4, traced: traced, out: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
