package chaos

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/trace_digests.txt from the current code")

const digestFile = "testdata/trace_digests.txt"

// digestRun is one (scenario, seed) whose trace is pinned by digest.
type digestRun struct {
	key string
	run func() []byte
}

// digestCorpus lists the seeds the CI chaos-smoke job runs: the E18 quick
// sweep (14 driver scenarios × 71 seeds), the tenant-isolation tests, and
// the fleet control-plane tests.
func digestCorpus() []digestRun {
	var runs []digestRun
	type driverScenario struct {
		name string
		cfg  Config
	}
	var drivers []driverScenario
	for _, nic := range []string{"e1000", "e1000e", "ice", "ixgbe", "mlx5", "qdma"} {
		drivers = append(drivers,
			driverScenario{nic + "/harden", Config{NIC: nic, Mode: ModeHarden, Steps: 128}},
			driverScenario{nic + "/evolve", Config{NIC: nic, Mode: ModeEvolve, Steps: 128}})
	}
	drivers = append(drivers,
		driverScenario{"e1000e/harden/q4", Config{NIC: "e1000e", Mode: ModeHarden, Steps: 192, Queues: 4}},
		driverScenario{"ice/evolve/q2", Config{NIC: "ice", Mode: ModeEvolve, Steps: 192, Queues: 2}})
	for _, d := range drivers {
		for seed := uint64(1); seed <= 71; seed++ {
			cfg, seed := d.cfg, seed
			runs = append(runs, digestRun{fmt.Sprintf("driver %s seed=%d", d.name, seed),
				func() []byte { return Run(cfg, seed).Trace }})
		}
	}
	tenant := func(name string, cfg TenantConfig, seeds ...uint64) {
		for _, seed := range seeds {
			seed := seed
			runs = append(runs, digestRun{fmt.Sprintf("tenant %s seed=%d", name, seed),
				func() []byte { return RunTenant(cfg, seed).Trace }})
		}
	}
	tenant("t4c2s512", TenantConfig{Tenants: 4, Cores: 2, Steps: 512}, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	tenant("t4c2s256", TenantConfig{Tenants: 4, Cores: 2, Steps: 256}, 7, 8)
	tenant("t16c4s768", TenantConfig{Tenants: 16, Cores: 4, Steps: 768}, 3)
	fleet := func(name string, cfg FleetConfig, seeds ...uint64) {
		for _, seed := range seeds {
			seed := seed
			runs = append(runs, digestRun{fmt.Sprintf("fleet %s seed=%d", name, seed),
				func() []byte { return RunFleet(cfg, seed).Trace }})
		}
	}
	fleet("h8s512", FleetConfig{Hosts: 8, Steps: 512}, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
	fleet("h6s256", FleetConfig{Hosts: 6, Steps: 256}, 42, 43)
	return runs
}

// TestTraceDigests is the regression oracle for datapath refactors: every
// pinned chaos trace must hash to the committed digest, i.e. stay
// byte-identical. Regenerate with -update-digests only for an intended
// behaviour change, and say why in the change description.
func TestTraceDigests(t *testing.T) {
	var got bytes.Buffer
	got.WriteString("# SHA-256 of chaos traces for the CI chaos-smoke seeds; checked by TestTraceDigests.\n")
	got.WriteString("# Regenerate: go test ./internal/chaos -run TestTraceDigests -update-digests\n")
	for _, r := range digestCorpus() {
		sum := sha256.Sum256(r.run())
		fmt.Fprintf(&got, "%s %s\n", r.key, hex.EncodeToString(sum[:]))
	}
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := digestLines(want)
	gotLines := digestLines(got.Bytes())
	if len(wantLines) != len(gotLines) {
		t.Fatalf("digest corpus has %d runs, %s pins %d", len(gotLines), digestFile, len(wantLines))
	}
	bad := 0
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("trace changed:\n  want %s\n  got  %s", wantLines[i], gotLines[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d traces changed", bad, len(wantLines))
	}
}

// digestLines returns the non-comment lines of a digest file.
func digestLines(b []byte) []string {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out
}
