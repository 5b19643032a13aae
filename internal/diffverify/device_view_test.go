package diffverify

import (
	"testing"

	"opendesc/internal/nic"
)

// TestDeviceViewBundled: view E compares every golden packet on every path
// of the six bundled NICs, and adds nothing to the four-view totals.
func TestDeviceViewBundled(t *testing.T) {
	var paths, cases, checks, device int
	for _, m := range nic.All() {
		rep, err := VerifyModel(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Errorf("%s: %s", m.Name, rep)
		}
		if want := rep.Paths * 4; rep.DeviceChecks != want {
			t.Errorf("%s: %d device checks, want %d (4 golden packets × %d paths)", m.Name, rep.DeviceChecks, want, rep.Paths)
		}
		paths += rep.Paths
		cases += rep.Cases
		checks += rep.Checks
		device += rep.DeviceChecks
	}
	if paths != 18 || cases != 892 || checks != 16642 {
		t.Errorf("four-view totals moved: %d paths, %d cases, %d checks; want 18 / 892 / 16642", paths, cases, checks)
	}
	t.Logf("%d device checks over %d paths", device, paths)
}

// TestDeviceViewMutants: every mutant the sweep accepts also passes view E.
func TestDeviceViewMutants(t *testing.T) {
	passed := 0
	for _, m := range nic.All() {
		for _, v := range Sweep(m.Name, m.Source, 0xde71ce, 16) {
			if v.Outcome != OutcomePass {
				continue
			}
			src, _, err := Mutate(m.Source, v.Seed)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := VerifySource(m.Name, src, Options{})
			if err != nil || !rep.OK() {
				t.Fatalf("%s seed %#x: replay of a passing mutant failed: %v %v", m.Name, v.Seed, err, rep)
			}
			if rep.DeviceChecks < rep.Paths {
				t.Errorf("%s seed %#x: %d device checks over %d paths", m.Name, v.Seed, rep.DeviceChecks, rep.Paths)
			}
			passed++
		}
	}
	if passed == 0 {
		t.Fatal("no mutant passed; view E untested on mutants")
	}
}

// metadataBranchSource branches on a per-packet metadata field, so the
// device cannot fold it and must fall back to its reference interpreter.
const metadataBranchSource = `
struct mb_ctx_t {
    bit<1> wide;
}

struct mb_meta_t {
    @semantic("pkt_len")
    bit<16> len;
    @semantic("vlan")
    bit<16> vlan;
    @semantic("rss")
    bit<32> rss;
}

control CmptDeparser(cmpt_out cmpt_out, in mb_ctx_t ctx, in mb_meta_t meta) {
    apply {
        cmpt_out.emit(meta.len);
        if (meta.vlan != 0) {
            cmpt_out.emit(meta.vlan);
        }
        if (ctx.wide == 1) {
            cmpt_out.emit(meta.rss);
        }
    }
}
`

// TestDeviceViewMetadataBranch: on a description whose branch reads
// metadata, view E asserts the fallback on every path (one extra check per
// path) and still compares the golden packets.
func TestDeviceViewMetadataBranch(t *testing.T) {
	rep, err := VerifySource("meta-branch", metadataBranchSource, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("%s", rep)
	}
	if want := rep.Paths * 5; rep.DeviceChecks != want {
		t.Errorf("%d device checks over %d paths, want %d (fallback + 4 packets each)", rep.DeviceChecks, rep.Paths, want)
	}
}
