package nicsim

import (
	"bytes"
	"encoding/binary"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
	"opendesc/internal/pkt"
)

// packetBattery covers every offload engine's interesting inputs: VLAN and
// QinQ tags, a VXLAN tunnel, a key-value request, bad IPv4 and L4
// checksums, a UDP datagram without a checksum, IPv6, a non-IP frame, and
// truncated and undecodable frames.
func packetBattery() map[string][]byte {
	vxlan := make([]byte, 8+14)
	vxlan[0] = 0x08
	vxlan[4], vxlan[5], vxlan[6] = 0x12, 0x34, 0x56
	arp := pkt.NewBuilder().WithPayload(make([]byte, 28)).Build()
	binary.BigEndian.PutUint16(arp[12:], 0x0806)
	full := testPacket()
	threeTags := pkt.NewBuilder().WithVLAN(1).WithVLAN(2).Build()
	threeTags = append(append(append([]byte{}, threeTags[:12]...), 0x81, 0x00, 0x00, 0x03), threeTags[12:]...)
	badVersion := pkt.NewBuilder().Build()
	badVersion[14] = 0x55
	noUDPCsum := pkt.NewBuilder().WithUDP(5000, 53).WithPayload([]byte("dns?")).Build()
	noUDPCsum[pkt.EthHeaderLen+pkt.IPv4MinLen+6], noUDPCsum[pkt.EthHeaderLen+pkt.IPv4MinLen+7] = 0, 0
	return map[string][]byte{
		"vlan-tcp":     full,
		"qinq":         pkt.NewBuilder().WithVLAN(0x0ABC).WithVLAN(0x0123).WithPayload([]byte("qq")).Build(),
		"vxlan":        pkt.NewBuilder().WithUDP(40000, 4789).WithPayload(vxlan).Build(),
		"kv-get":       pkt.NewBuilder().WithUDP(4000, 11211).WithPayload([]byte("get user:4711\r\n")).Build(),
		"bad-ip-csum":  pkt.NewBuilder().WithBadIPChecksum().WithPayload([]byte("x")).Build(),
		"bad-l4-csum":  pkt.NewBuilder().WithTCP(1, 2, 0x10).WithBadL4Checksum().Build(),
		"udp-no-csum":  noUDPCsum,
		"ipv6-udp":     pkt.NewBuilder().WithIPv6([16]byte{0xfe, 0x80, 15: 1}, [16]byte{0xfe, 0x80, 15: 2}).WithPayload([]byte("six")).Build(),
		"non-ip":       arp,
		"truncated-ip": full[:20],
		"runt":         full[:9],
		"empty":        {},
		"three-tags":   threeTags,
		"bad-version":  badVersion,
	}
}

// rxCompare receives one packet and checks the device's verdict and record
// against the reference interpreter run under the same context and clock.
func rxCompare(t *testing.T, dev *Device, name string, p []byte) {
	t.Helper()
	before := dev.cmptBytes.Load()
	accepted := dev.RxPacket(p)
	want, err := dev.ReferenceCompletion(p)
	if accepted != (err == nil) {
		t.Fatalf("%s: device accepted=%v, reference err=%v", name, accepted, err)
	}
	if !accepted {
		return
	}
	n := int(dev.cmptBytes.Load() - before)
	got := append([]byte(nil), dev.CmptRing.Peek()[:n]...)
	dev.CmptRing.Pop()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: lowered completion\n  %x\nreference\n  %x", name, got, want)
	}
}

// TestLoweredMatchesReference: on every completion path of every bundled
// NIC the context folds to a lowered emit program, and that program emits
// the reference interpreter's record byte for byte, with the same accept
// verdict, for the whole packet battery.
func TestLoweredMatchesReference(t *testing.T) {
	battery := packetBattery()
	npaths := 0
	for _, m := range nic.All() {
		paths, err := m.Paths()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			npaths++
			dev := MustNew(m, Config{QueueID: 3, Mark: 0xABCDE, CryptoCtx: 0x77})
			if err := dev.ApplyConfig(p.Constraints); err != nil {
				t.Fatalf("%s path %d: %v", m.Name, p.ID, err)
			}
			if dev.prog.Load() != nil {
				t.Fatalf("%s path %d: ApplyConfig lowered eagerly", m.Name, p.ID)
			}
			if !dev.Lowered() {
				t.Fatalf("%s path %d: context did not fold to an emit program", m.Name, p.ID)
			}
			for name, pk := range battery {
				rxCompare(t, dev, m.Name+"/"+name, pk)
			}
		}
	}
	if npaths != 18 {
		t.Errorf("covered %d paths, want the 18 bundled ones", npaths)
	}
}

// TestLoweredOffloadsOnlyWhatThePathEmits: the lowered program runs exactly
// the engines of the semantics its path emits.
func TestLoweredOffloadsOnlyWhatThePathEmits(t *testing.T) {
	m := nic.MustLoad("mlx5")
	paths, _ := m.Paths()
	for _, p := range paths {
		dev := MustNew(m, Config{})
		if err := dev.ApplyConfig(p.Constraints); err != nil {
			t.Fatal(err)
		}
		dev.RxPacket(testPacket())
		st := dev.Stats()
		for _, f := range p.Fields {
			if f.Semantic != "" && st.Offloads[f.Semantic] != 1 {
				t.Errorf("path %d: emitted %s ran %d times", p.ID, f.Semantic, st.Offloads[f.Semantic])
			}
		}
		for s, n := range st.Offloads {
			if p.Field(s) == nil {
				t.Errorf("path %d: %s is not emitted but its engine ran %d times", p.ID, s, n)
			}
		}
	}
}

// TestRelowerOnContextChange: a register write drops the program and the
// next packet lowers the new context; a reset falls back to the reference
// (no path matches a cleared context), which drops like the interpreter.
func TestRelowerOnContextChange(t *testing.T) {
	m := nic.MustLoad("mlx5")
	dev := MustNew(m, Config{})
	paths, _ := m.Paths()
	for _, p := range paths {
		if err := dev.ApplyConfig(p.Constraints); err != nil {
			t.Fatal(err)
		}
		rxCompare(t, dev, "after-apply", testPacket())
		if got := dev.Stats().CompletionsByPath[p.ID]; got != 1 {
			t.Errorf("path %d hit %d times, want 1", p.ID, got)
		}
	}
	if err := dev.Reset(); err != nil {
		t.Fatal(err)
	}
	if dev.Lowered() {
		t.Error("cleared context lowered; want the reference fallback")
	}
	rxCompare(t, dev, "after-reset", testPacket())
}

// metaBranchNIC is a description whose completion branch reads per-packet
// metadata (the VLAN tag), so no context folds it.
const metaBranchNIC = `
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

func metaBranchModel(t testing.TB) *nic.Model {
	prog, err := parser.Parse("meta_branch.p4", metaBranchNIC)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return &nic.Model{Name: "meta-branch", Source: metaBranchNIC, Info: info, Deparser: core.DeparserSpec{Info: info}}
}

// TestMetadataBranchFallsBack: a branch over metadata keeps the device on
// the reference interpreter, which then serializes per packet.
func TestMetadataBranchFallsBack(t *testing.T) {
	m := metaBranchModel(t)
	paths, err := m.Paths()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		dev := MustNew(m, Config{})
		if err := dev.ApplyConfig(p.Constraints); err != nil {
			t.Fatal(err)
		}
		if dev.Lowered() {
			t.Fatalf("path %d: metadata branch folded", p.ID)
		}
		for name, pk := range packetBattery() {
			rxCompare(t, dev, name, pk)
		}
	}
}

// emitShapesNIC lays out every field shape the emit program compiles, on a
// path whose record fills all 256 bytes: a folded constant, a 1-bit slot
// field, another 1-bit constant and a 3-bit slot field sharing byte 0; a
// 64-bit field at bit offset 9, which spans nine bytes and keeps
// bitfield.Write; a 31-bit field ending on the record's last byte and a
// 1-bit field in its last bit, whose 8-byte windows run past the record.
const emitShapesNIC = `
struct es_ctx_t {
    bit<1> wide;
    bit<3> tag;
}

struct es_meta_t {
    @semantic("error_flags")
    bit<1> err;
    @semantic("pkt_len")
    bit<3> len;
    @semantic("decap")
    bit<1> decap;
    @semantic("kv_key")
    bit<64> key;
    bit<1943> pad;
    @semantic("rss")
    bit<31> rss;
    @semantic("flow_id")
    bit<1> last;
}

control CmptDeparser(cmpt_out cmpt_out, in es_ctx_t ctx, in es_meta_t meta) {
    apply {
        cmpt_out.emit(ctx.tag);
        cmpt_out.emit(meta.err);
        cmpt_out.emit(ctx.wide);
        cmpt_out.emit(meta.len);
        cmpt_out.emit(meta.decap);
        cmpt_out.emit(meta.key);
        if (ctx.wide == 1) {
            cmpt_out.emit(meta.pad);
            cmpt_out.emit(meta.rss);
            cmpt_out.emit(meta.last);
        }
    }
}
`

// TestLoweredEmitShapes: on both paths of emitShapesNIC the compiled emit
// program has the expected window stores, nine-byte fallback and constant
// template, and matches the reference interpreter byte for byte.
func TestLoweredEmitShapes(t *testing.T) {
	prog, err := parser.Parse("emit_shapes.p4", emitShapesNIC)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := &nic.Model{Name: "emit-shapes", Source: emitShapesNIC, Info: info, Deparser: core.DeparserSpec{Info: info}}
	paths, err := m.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("%d paths, want 2", len(paths))
	}
	for _, p := range paths {
		dev := MustNew(m, Config{})
		if err := dev.ApplyConfig(p.Constraints); err != nil {
			t.Fatal(err)
		}
		dev.WriteReg("ctx.tag", 0xD) // folds to 0b101: the field keeps its low 3 bits
		ep := dev.program()
		if !ep.lowered {
			t.Fatalf("path %d did not lower", p.ID)
		}
		wide := dev.ReadReg("ctx.wide") == 1
		wantSize, wantOps := 10, 4
		if wide {
			wantSize, wantOps = maxCompletionBytes, 6
		}
		if ep.size != wantSize || len(ep.ops) != wantOps {
			t.Fatalf("path %d: size %d with %d ops, want %d with %d", p.ID, ep.size, len(ep.ops), wantSize, wantOps)
		}
		wantTmpl := byte(0b101_0_0_000)
		if wide {
			wantTmpl |= 0b1000
		}
		if ep.tmpl[0] != wantTmpl {
			t.Errorf("path %d: template byte 0 = %08b, want %08b", p.ID, ep.tmpl[0], wantTmpl)
		}
		for _, op := range ep.ops {
			if fallback := op.mask == 0; fallback != (op.off == 9 && op.width == 64) {
				t.Errorf("path %d: field at bit %d width %d: fallback=%v", p.ID, op.off, op.width, fallback)
			}
			if wide && op.off+op.width == 8*maxCompletionBytes && op.byte+8 <= maxCompletionBytes {
				t.Errorf("path %d: last field's window ends inside the record", p.ID)
			}
		}
		for name, pk := range packetBattery() {
			rxCompare(t, dev, name, pk)
		}
	}
}

// TestRxPacketAllocFree: the lowered datapath allocates nothing per packet
// on any bundled NIC path.
func TestRxPacketAllocFree(t *testing.T) {
	p := testPacket()
	for _, m := range nic.All() {
		paths, _ := m.Paths()
		for _, path := range paths {
			dev := MustNew(m, Config{})
			if err := dev.ApplyConfig(path.Constraints); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if !dev.RxPacket(p) {
					t.Fatal("rx dropped")
				}
				dev.CmptRing.Pop()
			})
			if allocs != 0 {
				t.Errorf("%s path %d: %.1f allocs/pkt", m.Name, path.ID, allocs)
			}
		}
	}
}

// FuzzDeviceLowered feeds arbitrary frames to every bundled NIC path and
// requires the lowered program and the reference interpreter to agree on
// the verdict and on every completion byte.
func FuzzDeviceLowered(f *testing.F) {
	for _, p := range packetBattery() {
		f.Add(p)
	}
	type pathDev struct {
		name string
		dev  *Device
	}
	var devs []pathDev
	for _, m := range nic.All() {
		paths, err := m.Paths()
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			dev := MustNew(m, Config{RingEntries: 4})
			if err := dev.ApplyConfig(p.Constraints); err != nil {
				f.Fatal(err)
			}
			devs = append(devs, pathDev{m.Name, dev})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range devs {
			if len(data) > d.dev.Buffers.BufSize() {
				return // refused at buffer DMA, before any completion work
			}
			rxCompare(t, d.dev, d.name, data)
		}
	})
}
