// Package nicsim simulates a NIC whose descriptor interface is defined by an
// OpenDesc P4 description. The simulated device *executes the same
// declarative contract the compiler analyzes*: on the first packet after a
// context-register change it lowers the completion deparser's control-flow
// graph to a flat emit program — every branch folded under the programmed
// registers, leaving a record template holding the folded constants and one
// precompiled write per offload field — and per packet it runs only the
// offload engines that program reads before DMAing the serialized completion
// record into a completion ring. The per-packet CFG interpreter the device
// started from stays as the executable reference (ReferenceCompletion) and
// as the fallback for deparsers whose branches read per-packet metadata.
// Either way the layouts the compiler derives and the bytes the device emits
// are validated against each other end-to-end.
package nicsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"

	"opendesc/internal/bitfield"
	"opendesc/internal/core"
	"opendesc/internal/faults"
	"opendesc/internal/nic"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/p4/sema"
	"opendesc/internal/pkt"
	"opendesc/internal/ring"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/vclock"
)

// Config sizes a simulated device.
type Config struct {
	// RingEntries is the completion ring depth (default 1024).
	RingEntries int
	// BufSize is the RX packet buffer size (default 2048).
	BufSize int
	// QueueID is reported through the queue_id semantic.
	QueueID uint16
	// TimestampStep is the simulated clock advance per received packet in
	// nanoseconds (default 100).
	TimestampStep uint64
	// Mark is the value reported for the mark semantic (a match-action rule
	// tag); configurable like a flow rule.
	Mark uint64
	// CryptoCtx is the crypto context id the (simulated) inline-crypto engine
	// attaches to packets.
	CryptoCtx uint64
	// Clock, when non-nil, is the timeline the timestamp semantic reads (each
	// received packet is stamped Clock.Now()). Nil keeps the device's internal
	// free-running counter, which advances TimestampStep per packet. Chaos
	// runs inject the shared virtual clock here so device timestamps sit on
	// the same deterministic timeline as the rest of the stack.
	Clock vclock.Clock
}

// WithDefaults returns the configuration with unset fields defaulted — the
// concrete device state a zero Config produces (the hardened driver derives
// its device-state validation constants from it).
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.RingEntries == 0 {
		c.RingEntries = 1024
	}
	if c.BufSize == 0 {
		c.BufSize = 2048
	}
	if c.TimestampStep == 0 {
		c.TimestampStep = 100
	}
	return c
}

// Device is a simulated OpenDesc-described NIC.
type Device struct {
	Model *nic.Model
	cfg   Config

	graph *core.Graph
	paths []*core.Path

	// ctx holds the context registers (the implicit control channel of the
	// paper's Fig. 2), keyed by dotted path, e.g. "ctx.use_rss".
	ctx map[string]sema.Value

	// CmptRing receives the serialized completion records.
	CmptRing *ring.Ring
	// Buffers is the RX packet buffer area; completion i corresponds to
	// buffer slot i modulo pool size.
	Buffers *ring.BufferPool

	clock uint64

	// Ethtool-style device counters (atomic: the RX path runs on one
	// goroutine, but stats may be scraped from another at any time).
	rxPackets obs.Counter
	rxBytes   obs.Counter
	drops     obs.Counter
	cmptBytes obs.Counter
	// pathHits counts completions per enumerated path (index into paths).
	pathHits []obs.Counter
	// offloads counts offload-engine invocations, indexed like
	// offloadSemantics.
	offloads [numOffloads]obs.Counter
	// prog caches the completion deparser lowered under the current
	// context; nil means "lower on the next packet" (set by WriteReg and
	// Reset).
	prog atomic.Pointer[emitProgram]

	// faults, when non-nil, is the fault-injection layer consulted on every
	// DMA/completion and control-channel operation.
	faults *faults.Injector
	// fq, when attached, receives device-side flight-recorder events (DMA
	// emit, hang drops, resets). Nil by default.
	fq *flight.Queue
	// Fault-path counters (all zero on a healthy device).
	cfgNAKs    obs.Counter // ApplyConfig bursts refused (wedge or NAK)
	hangDrops  obs.Counter // packets refused while the device was wedged
	lostCmpts  obs.Counter // completions dropped by injection (host-visible desync)
	resets     obs.Counter // device resets that took effect
	resetFails obs.Counter // reset attempts refused while wedged

	// metaParams are the deparser parameters whose fields feed the emit
	// environment (context param excluded).
	metaParams []*sema.BoundParam
	ctxParam   string
	// envFields is the flattened field list of metaParams, precomputed once
	// so neither lowering nor the reference interpreter rebuilds dotted
	// field names; fieldIndex maps a dotted name to its envFields index.
	envFields  []envField
	fieldIndex map[string]int

	// scratch
	info    pkt.Info
	vals    [numOffloads]uint64
	envBuf  sema.MapEnv
	cmptBuf []byte
}

// envField is one leaf field of a deparser composite parameter.
type envField struct {
	name  string // dotted path, e.g. "cqe.rss_hash"
	slot  int    // offloadSemantics index of its semantic; −1 when untagged or not computed
	width int
}

// maxCompletionBytes bounds a single completion record in the simulator.
const maxCompletionBytes = 256

// emitSlack is the room past the record the emit program's 8-byte window
// stores may touch (bits outside the field are stored back unchanged).
const emitSlack = 8

// maxWalkSteps bounds a deparser CFG walk; it only trips on a malformed
// graph.
const maxWalkSteps = 10000

// ErrDeviceHang reports that the device is wedged: RX, TX and the control
// channel all refuse service until a reset succeeds.
var ErrDeviceHang = errors.New("device hang")

// ErrConfigNAK reports a NAKed control-channel register-write burst; the
// burst failed atomically and may be retried.
var ErrConfigNAK = errors.New("register write NAKed")

// New builds a simulated device for a NIC model.
func New(m *nic.Model, cfg Config) (*Device, error) {
	cfg = cfg.withDefaults()
	g, err := m.Graph()
	if err != nil {
		return nil, err
	}
	paths, err := m.Paths()
	if err != nil {
		return nil, err
	}
	d := &Device{
		Model:      m,
		cfg:        cfg,
		graph:      g,
		paths:      paths,
		ctx:        make(map[string]sema.Value),
		CmptRing:   ring.MustNew(maxCompletionBytes, cfg.RingEntries),
		Buffers:    ring.MustNewBufferPool(cfg.BufSize, cfg.RingEntries),
		envBuf:     make(sema.MapEnv),
		cmptBuf:    make([]byte, maxCompletionBytes+emitSlack),
		pathHits:   make([]obs.Counter, len(paths)),
		fieldIndex: make(map[string]int),
	}
	inst := g.Instance()
	for _, p := range inst.Params {
		ct, ok := p.Type.(*sema.CompositeType)
		if !ok {
			continue
		}
		// The context parameter is the struct the branch conditions read; it
		// is identified by convention (ctx-ish name) or by carrying no
		// semantic-tagged fields while being named in constraints.
		if strings.Contains(p.Name, "ctx") {
			d.ctxParam = p.Name
			continue
		}
		_ = ct
		d.metaParams = append(d.metaParams, p)
	}
	for _, p := range d.metaParams {
		d.flattenFields(p.Name, p.Type.(*sema.CompositeType))
	}
	return d, nil
}

// flattenFields records every emit-relevant leaf field of a composite
// parameter under its dotted name (pads and oversized fields excluded, as in
// the emit path they feed).
func (d *Device) flattenFields(prefix string, ct *sema.CompositeType) {
	for _, f := range ct.Fields {
		name := prefix + "." + f.Name
		if nested, ok := f.Type.(*sema.CompositeType); ok {
			d.flattenFields(name, nested)
			continue
		}
		w := f.Type.BitWidth()
		if w <= 0 || w > 64 {
			continue
		}
		slot := -1
		if i, ok := offloadSlot[semantics.Name(f.Semantic)]; ok {
			slot = i
		}
		d.fieldIndex[name] = len(d.envFields)
		d.envFields = append(d.envFields, envField{name: name, slot: slot, width: w})
	}
}

// Config returns the device's (defaulted) configuration — the concrete
// device state drivers derive their validation constants from.
func (d *Device) Config() Config { return d.cfg }

// MustNew panics on error.
func MustNew(m *nic.Model, cfg Config) *Device {
	d, err := New(m, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// WriteReg programs one context register (MMIO write on the control
// channel). The path is the dotted name used in the description, e.g.
// "ctx.use_rss".
func (d *Device) WriteReg(path string, v uint64) {
	d.ctx[path] = sema.UintValue(v, 64)
	d.prog.Store(nil) // context changed: re-lower on the next packet
}

// ReadReg returns a context register value (0 when never written).
func (d *Device) ReadReg(path string) uint64 { return d.ctx[path].Uint }

// ApplyConfig programs the context registers so the device takes the
// completion path selected by a compilation result. The concrete values are
// resolved by core.ConfigAssignment (equality constraints pin the register,
// disequalities pick the smallest value not excluded). The register-write
// burst fails atomically when the device is wedged or the control channel
// NAKs it (fault injection): no register is written on error.
func (d *Device) ApplyConfig(cons []core.Constraint) error {
	if d.faults != nil {
		if d.faults.Tick() {
			d.cfgNAKs.Inc()
			return fmt.Errorf("nicsim %s: %w", d.Model.Name, ErrDeviceHang)
		}
		if d.faults.NAKConfig() {
			d.cfgNAKs.Inc()
			return fmt.Errorf("nicsim %s: %w", d.Model.Name, ErrConfigNAK)
		}
	}
	vals, err := core.ConfigAssignment(cons)
	if err != nil {
		return fmt.Errorf("nicsim: %w", err)
	}
	for v, val := range vals {
		d.WriteReg(v, val)
	}
	return nil
}

// ActivePath returns the completion path the current context registers
// select, by evaluating each enumerated path's constraints.
func (d *Device) ActivePath() (*core.Path, error) {
	for _, p := range d.paths {
		ok := true
		for _, c := range p.Constraints {
			got := d.ctx[c.Var]
			if c.Equal != got.Equal(c.Val) {
				ok = false
				break
			}
		}
		if ok {
			return p, nil
		}
	}
	return nil, fmt.Errorf("nicsim %s: no completion path matches context %v", d.Model.Name, d.ctx)
}

// ContextParam returns the name of the deparser's context parameter (the
// struct the control channel programs), e.g. "ctx".
func (d *Device) ContextParam() string { return d.ctxParam }

// Offload slots: the index of each semantic the simulated offload engines
// compute, into offloadSemantics, the per-packet value array and the
// invocation counters.
const (
	oPktLen = iota
	oTimestamp
	oQueueID
	oMark
	oCryptoCtx
	oLROSegs
	oSegCnt
	oRXDropHint
	oErrorFlags
	oRSS
	oIPChecksum
	oL4Checksum
	oVLAN
	oPType
	oFlowID
	oIPID
	oKVKey
	oPayloadHash
	oTunnelID
	oL4Port
	oDecapFlag
	oChecksumAny
	oParserDepth
	numOffloads
)

// offloadSemantics is every semantic the simulated offload engines can
// compute, indexed by offload slot.
var offloadSemantics = [numOffloads]semantics.Name{
	oPktLen: semantics.PktLen, oTimestamp: semantics.Timestamp, oQueueID: semantics.QueueID,
	oMark: semantics.Mark, oCryptoCtx: semantics.CryptoCtx, oLROSegs: semantics.LROSegs,
	oSegCnt: semantics.SegCnt, oRXDropHint: semantics.RXDropHint, oErrorFlags: semantics.ErrorFlags,
	oRSS: semantics.RSS, oIPChecksum: semantics.IPChecksum, oL4Checksum: semantics.L4Checksum,
	oVLAN: semantics.VLAN, oPType: semantics.PType, oFlowID: semantics.FlowID,
	oIPID: semantics.IPID, oKVKey: semantics.KVKey, oPayloadHash: semantics.PayloadHash,
	oTunnelID: semantics.TunnelID, oL4Port: semantics.L4Port, oDecapFlag: semantics.DecapFlag,
	oChecksumAny: semantics.ChecksumAny, oParserDepth: semantics.ParserDepth,
}

// offloadSlot maps a semantic to its offload slot.
var offloadSlot = func() map[semantics.Name]int {
	m := make(map[semantics.Name]int, numOffloads)
	for i, s := range offloadSemantics {
		m[s] = i
	}
	return m
}()

// offloadSet is a set of offload slots.
type offloadSet uint32

const (
	allOffloads offloadSet = 1<<numOffloads - 1
	// headerOffloads need the decoded packet; the rest are device state or
	// the frame length.
	headerOffloads offloadSet = allOffloads &^ (1<<oPktLen | 1<<oTimestamp | 1<<oQueueID |
		1<<oMark | 1<<oCryptoCtx | 1<<oLROSegs | 1<<oSegCnt | 1<<oRXDropHint)
)

// DeviceStats is a point-in-time snapshot of a device's ethtool-style
// counters.
type DeviceStats struct {
	// RxPackets counts packets accepted end-to-end (completion DMAed);
	// Drops counts packets rejected anywhere in the RX path.
	RxPackets uint64
	RxBytes   uint64
	Drops     uint64
	// Completions mirrors RxPackets (one completion per accepted packet);
	// CompletionBytes is the total completion-record DMA volume.
	Completions     uint64
	CompletionBytes uint64
	// CompletionsByPath counts completions per enumerated deparser path,
	// keyed by path ID.
	CompletionsByPath map[int]uint64
	// Offloads counts per-semantic offload-engine invocations.
	Offloads map[semantics.Name]uint64
	// Ring is the completion ring's counter snapshot.
	Ring ring.Stats
	// Fault-path counters (all zero on a healthy device): ConfigNAKs counts
	// refused ApplyConfig bursts, HangDrops packets refused while wedged,
	// LostCompletions injected completion losses, Resets successful device
	// resets, ResetFails reset attempts refused while wedged.
	ConfigNAKs      uint64
	HangDrops       uint64
	LostCompletions uint64
	Resets          uint64
	ResetFails      uint64
}

// Stats returns a snapshot of the device counters. Safe to call while
// another goroutine is receiving packets. Maps contain only non-zero
// entries.
func (d *Device) Stats() DeviceStats {
	st := DeviceStats{
		RxPackets:         d.rxPackets.Load(),
		RxBytes:           d.rxBytes.Load(),
		Drops:             d.drops.Load(),
		Completions:       d.rxPackets.Load(),
		CompletionBytes:   d.cmptBytes.Load(),
		CompletionsByPath: make(map[int]uint64),
		Offloads:          make(map[semantics.Name]uint64),
		Ring:              d.CmptRing.Stats(),
		ConfigNAKs:        d.cfgNAKs.Load(),
		HangDrops:         d.hangDrops.Load(),
		LostCompletions:   d.lostCmpts.Load(),
		Resets:            d.resets.Load(),
		ResetFails:        d.resetFails.Load(),
	}
	for i := range d.pathHits {
		if n := d.pathHits[i].Load(); n > 0 {
			st.CompletionsByPath[d.paths[i].ID] = n
		}
	}
	for i := range d.offloads {
		if n := d.offloads[i].Load(); n > 0 {
			st.Offloads[offloadSemantics[i]] = n
		}
	}
	return st
}

// RegisterMetrics exposes the device counters (and its completion ring's)
// on an obs registry, labelled with the NIC model name plus any extra
// labels (e.g. the queue id). Idempotent per registry and label set.
func (d *Device) RegisterMetrics(reg *obs.Registry, extra ...obs.Label) {
	base := append([]obs.Label{obs.L("nic", d.Model.Name)}, extra...)
	reg.AttachCounter("opendesc_dev_rx_packets_total", "packets accepted by the simulated device", &d.rxPackets, base...)
	reg.AttachCounter("opendesc_dev_rx_bytes_total", "packet bytes accepted by the simulated device", &d.rxBytes, base...)
	reg.AttachCounter("opendesc_dev_drops_total", "packets dropped in the RX path", &d.drops, base...)
	reg.AttachCounter("opendesc_dev_completion_bytes_total", "completion-record bytes DMAed", &d.cmptBytes, base...)
	reg.AttachCounter("opendesc_dev_config_naks_total", "refused ApplyConfig register-write bursts", &d.cfgNAKs, base...)
	reg.AttachCounter("opendesc_dev_hang_drops_total", "packets refused while the device was wedged", &d.hangDrops, base...)
	reg.AttachCounter("opendesc_dev_lost_completions_total", "completions lost to fault injection", &d.lostCmpts, base...)
	reg.AttachCounter("opendesc_dev_resets_total", "device resets that took effect", &d.resets, base...)
	reg.AttachCounter("opendesc_dev_reset_fails_total", "reset attempts refused while wedged", &d.resetFails, base...)
	for i := range d.pathHits {
		labels := append(append([]obs.Label{}, base...), obs.L("path", strconv.Itoa(d.paths[i].ID)))
		reg.AttachCounter("opendesc_dev_path_completions_total", "completions emitted per deparser path", &d.pathHits[i], labels...)
	}
	for i, s := range offloadSemantics {
		labels := append(append([]obs.Label{}, base...), obs.L("semantic", string(s)))
		reg.AttachCounter("opendesc_dev_offload_invocations_total", "offload-engine invocations per semantic", &d.offloads[i], labels...)
	}
	r := d.CmptRing
	rl := append(append([]obs.Label{}, base...), obs.L("ring", "cmpt"))
	reg.CounterFunc("opendesc_ring_produced_total", "entries published to the ring", func() uint64 { return r.Stats().Produced }, rl...)
	reg.CounterFunc("opendesc_ring_consumed_total", "entries released from the ring", func() uint64 { return r.Stats().Consumed }, rl...)
	reg.CounterFunc("opendesc_ring_full_stalls_total", "rejected produce attempts (ring full)", func() uint64 { return r.Stats().FullStalls }, rl...)
	reg.CounterFunc("opendesc_ring_empty_stalls_total", "failed consume attempts (ring empty)", func() uint64 { return r.Stats().EmptyStalls }, rl...)
	reg.GaugeFunc("opendesc_ring_occupancy", "instantaneous ring fill level (entries)", func() int64 { return int64(r.Occupancy()) }, rl...)
	reg.GaugeFunc("opendesc_ring_occupancy_highwater", "largest ring occupancy observed", func() int64 { return int64(r.Stats().HighWater) }, rl...)
	reg.GaugeFunc("opendesc_ring_capacity", "ring capacity (entries)", func() int64 { return int64(r.Capacity()) }, rl...)
}

// RxPacket makes the device receive one packet from the wire: it DMAs the
// packet into the next buffer slot, computes the offload metadata the active
// completion path needs, serializes the completion record with the lowered
// emit program (or the reference interpreter, when the deparser does not
// fold), and DMAs it. It returns false when the packet is dropped: the
// device is wedged, the completion ring is full, or no completion can be
// serialized under the programmed context.
func (d *Device) RxPacket(packet []byte) bool {
	if d.faults != nil && d.faults.Tick() {
		// Wedged: the device refuses the packet outright.
		d.hangDrops.Inc()
		d.drops.Inc()
		d.fq.Record(flight.EvHangDrop, uint32(d.rxPackets.Load()), 0, 0)
		return false
	}
	slot := int(d.rxPackets.Load()) % d.Buffers.Count()
	if err := d.Buffers.Write(slot, packet); err != nil {
		d.drops.Inc()
		return false
	}
	if d.cfg.Clock != nil {
		d.clock = d.cfg.Clock.Now()
	} else {
		d.clock += d.cfg.TimestampStep
	}

	prog := d.program()
	for ran := d.computeOffloads(packet, prog.need, prog.lowered, &d.vals); ran != 0; ran &= ran - 1 {
		d.offloads[bits.TrailingZeros32(uint32(ran))].Inc()
	}
	var n int
	if prog.lowered {
		n = prog.emit(&d.vals, d.cmptBuf)
	} else {
		var err error
		if n, err = d.serializeCompletion(d.buildEnv(&d.vals), d.cmptBuf[:maxCompletionBytes]); err != nil {
			d.drops.Inc()
			return false
		}
	}
	rec, extra := d.cmptBuf[:n], []byte(nil)
	if d.faults != nil {
		rec, extra = d.faults.Completion(rec)
	}
	if rec == nil {
		// Injected completion loss: the device believes the packet completed
		// (it was DMAed and counted), but no record reaches the host — the
		// pending/completion desync the driver must resynchronize from.
		d.lostCmpts.Inc()
		d.rxPackets.Inc()
		d.rxBytes.Add(uint64(len(packet)))
		d.fq.Record(flight.EvDMALost, uint32(d.rxPackets.Load()), uint64(n), 0)
		return true
	}
	if !d.CmptRing.Push(rec) {
		d.drops.Inc()
		return false
	}
	if extra != nil {
		// Injected duplicate: best-effort second publish (a full ring just
		// swallows the duplicate, as real hardware would).
		d.CmptRing.Push(extra)
	}
	d.rxPackets.Inc()
	d.rxBytes.Add(uint64(len(packet)))
	d.cmptBytes.Add(uint64(len(rec)))
	idx := prog.pathIdx
	if idx >= 0 {
		d.pathHits[idx].Inc()
	}
	// seq is the 1-based packet count, matching the driver's Rx sequence.
	// Routine emits are sampled (flight.SamplePeriod) to stay inside the
	// recorder's hot-path budget; anomalies above are always recorded.
	if seq := uint32(d.rxPackets.Load()); flight.Sampled(seq) {
		d.fq.Record(flight.EvDMAEmit, seq, uint64(len(rec)), uint64(idx+1))
	}
	return true
}

// InjectFaults attaches a fault-injection layer; nil detaches it. The
// injector is consulted from the device datapath goroutine on every RX, TX,
// control-channel and reset operation. An already-attached flight queue is
// propagated so injected faults show up in the event stream.
func (d *Device) InjectFaults(inj *faults.Injector) {
	d.faults = inj
	if inj != nil && d.fq != nil {
		inj.AttachFlight(d.fq)
	}
}

// AttachFlight wires the device, its completion ring, and any attached fault
// injector to a flight-recorder queue. Attach before the datapath starts.
func (d *Device) AttachFlight(q *flight.Queue) {
	d.fq = q
	d.CmptRing.AttachFlight(q)
	if d.faults != nil {
		d.faults.AttachFlight(q)
	}
}

// Faults returns the attached injector (nil on a healthy device).
func (d *Device) Faults() *faults.Injector { return d.faults }

// Hung reports whether the device is currently wedged.
func (d *Device) Hung() bool { return d.faults.Hung() }

// TickClock advances the device's internal fault clock without submitting
// work — the discrete-time stand-in for wall time elapsing while a host
// backs off from a wedged device (a hang burst can only drain while the
// clock runs).
func (d *Device) TickClock() {
	if d.faults != nil {
		d.faults.Tick()
	}
}

// Reset models a full device reset: the completion ring is emptied and the
// context registers are cleared, so the host must re-ApplyConfig before the
// device resolves a completion path again. While a hang burst is still
// running the device stays unresponsive and the reset fails.
func (d *Device) Reset() error {
	if d.faults != nil && !d.faults.TryReset() {
		d.resetFails.Inc()
		return fmt.Errorf("nicsim %s: reset refused: %w", d.Model.Name, ErrDeviceHang)
	}
	d.CmptRing.Reset()
	d.ctx = make(map[string]sema.Value)
	d.prog.Store(nil)
	d.resets.Inc()
	d.fq.Record(flight.EvDevReset, uint32(d.resets.Load()), 0, 0)
	return nil
}

// hwRSS is the device RSS engine: the Toeplitz table of the key softnic.RSS
// hashes under.
var hwRSS = softnic.ToeplitzTableFor(softnic.DefaultToeplitzKey[:])

// computeOffloads runs the offload engines for the slots in need, writing
// their values into v, and returns the slots whose engine ran. A packet that
// fails to decode runs no header engine: error_flags reports 0x80 (parse
// error) and every other header slot reads 0. decap_flag runs only for
// tunnelled packets, as its engine only fires on a decapsulation. With hw
// set, the engines are the silicon models a lowered program runs: table
// RSS, and one L4 checksum pass shared by l4_checksum and error_flags.
// Without it they are the SoftNIC reference bodies the interpreter runs.
// Both produce the same values.
func (d *Device) computeOffloads(packet []byte, need offloadSet, hw bool, v *[numOffloads]uint64) offloadSet {
	v[oPktLen] = uint64(len(packet))
	v[oTimestamp] = d.clock
	v[oQueueID] = uint64(d.cfg.QueueID)
	v[oMark] = d.cfg.Mark
	v[oCryptoCtx] = d.cfg.CryptoCtx
	v[oLROSegs] = 1
	v[oSegCnt] = 1
	v[oRXDropHint] = 0
	ran := need &^ headerOffloads
	hdr := need & headerOffloads
	if hdr == 0 {
		return ran
	}
	in := &d.info
	if pkt.Decode(packet, in) != nil {
		for s := hdr; s != 0; s &= s - 1 {
			v[bits.TrailingZeros32(uint32(s))] = 0
		}
		v[oErrorFlags] = 0x80
		return ran | hdr&(1<<oErrorFlags)
	}
	ran |= hdr &^ (1 << oDecapFlag)
	has := func(slot int) bool { return hdr&(1<<slot) != 0 }
	if has(oRSS) {
		if hw {
			v[oRSS] = uint64(hwRSS.RSS(in))
		} else {
			v[oRSS] = uint64(softnic.RSS(in))
		}
	}
	if has(oIPChecksum) {
		v[oIPChecksum] = uint64(softnic.IPChecksum(in))
	}
	var l4 uint16
	var l4ok bool
	if has(oL4Checksum) {
		l4, l4ok = pkt.L4Checksum(in)
		v[oL4Checksum] = uint64(l4)
	}
	if has(oVLAN) {
		v[oVLAN] = uint64(softnic.VLANTCI(in))
	}
	if has(oPType) {
		v[oPType] = uint64(softnic.PType(in))
	}
	if has(oFlowID) {
		v[oFlowID] = uint64(softnic.FlowID(in))
	}
	if has(oIPID) {
		v[oIPID] = uint64(in.IPID)
	}
	if has(oKVKey) {
		v[oKVKey] = softnic.KVKey(in)
	}
	if has(oPayloadHash) {
		v[oPayloadHash] = uint64(softnic.PayloadHash(in))
	}
	if has(oTunnelID) || has(oDecapFlag) {
		v[oTunnelID] = uint64(softnic.TunnelID(in))
		v[oDecapFlag] = 0
		if v[oTunnelID] != 0 {
			v[oDecapFlag] = 1
			ran |= hdr & (1 << oDecapFlag)
		}
	}
	if has(oL4Port) {
		v[oL4Port] = uint64(in.DstPort)
	}
	if has(oErrorFlags) {
		if hw && has(oL4Checksum) {
			v[oErrorFlags] = softnic.ErrorFlagsL4(in, l4, l4ok)
		} else {
			v[oErrorFlags] = softnic.ErrorFlags(in)
		}
	}
	if has(oChecksumAny) {
		v[oChecksumAny] = softnic.ChecksumAny(in)
	}
	if has(oParserDepth) {
		v[oParserDepth] = softnic.ParserDepth(in)
	}
	return ran
}

// buildEnv maps every semantic-tagged field of the deparser's composite
// parameters to its offload value (masked to the field width), plus the
// context registers: the environment the reference interpreter walks under.
func (d *Device) buildEnv(vals *[numOffloads]uint64) sema.MapEnv {
	env := d.envBuf
	clear(env)
	for k, v := range d.ctx {
		env[k] = v
	}
	for _, f := range d.envFields {
		var v uint64
		if f.slot >= 0 {
			v = vals[f.slot]
			if f.width < 64 {
				v &= (uint64(1) << f.width) - 1
			}
		}
		env[f.name] = sema.UintValue(v, f.width)
	}
	return env
}

// ReferenceCompletion returns the completion record the reference CFG
// interpreter serializes for packet under the current context registers and
// the timestamp of the last received packet: every offload engine runs into
// fresh storage, a string-keyed environment is built, and the deparser graph
// is walked branch by branch. It touches no counter, ring or fault state, so
// a test can call it right after RxPacket to check the record the device
// emitted; like RxPacket it must run on the datapath goroutine. An error
// means the interpreter cannot serialize any completion (RxPacket drops the
// packet).
func (d *Device) ReferenceCompletion(packet []byte) ([]byte, error) {
	var vals [numOffloads]uint64
	d.computeOffloads(packet, allOffloads, false, &vals)
	rec := make([]byte, maxCompletionBytes)
	n, err := d.serializeCompletion(d.buildEnv(&vals), rec)
	if err != nil {
		return nil, err
	}
	return rec[:n], nil
}

// emitProgram is the completion deparser lowered under one context: the
// branches folded away, leaving a record template and the offload-field
// writes the selected path performs.
type emitProgram struct {
	// lowered is false when the deparser did not fold (a reachable branch
	// reads per-packet metadata, no enumerated path matches the context, or
	// the walk fails for every packet); RxPacket then runs the reference
	// interpreter, with every offload engine.
	lowered bool
	// tmpl is the completion record with every folded constant written and
	// every other bit zero.
	tmpl []byte
	// ops writes the offload-slot fields over a copy of tmpl.
	ops []emitOp
	// need is the set of offload slots the ops read.
	need offloadSet
	// size is the completion record size in bytes.
	size int
	// pathIdx indexes the enumerated path the context selects (the
	// path-hit counter); −1 when none matches.
	pathIdx int
}

// emitOp writes one offload value into a completion field. A field that
// fits one 64-bit window (off%8+width ≤ 64) is a big-endian load–mask–store
// of the 8 bytes at byte: the field is the mask bits, the value shifted left
// by shift. A field spanning nine bytes has mask 0 and goes through
// bitfield.Write at (off, width).
type emitOp struct {
	slot       int
	byte       int
	shift      uint
	mask       uint64
	off, width int
}

// compileEmitOp precomputes the window store for a slot field at bit off.
func compileEmitOp(slot, off, width int) emitOp {
	op := emitOp{slot: slot, off: off, width: width}
	if end := off%8 + width; end <= 64 {
		op.byte = off / 8
		op.shift = uint(64 - end)
		op.mask = ^uint64(0) >> (64 - width) << op.shift
	}
	return op
}

// emit serializes the completion record into dst and returns its size. dst
// holds at least size+emitSlack bytes: a window store may reach past the
// record.
func (p *emitProgram) emit(vals *[numOffloads]uint64, dst []byte) int {
	copy(dst, p.tmpl)
	for i := range p.ops {
		op := &p.ops[i]
		v := vals[op.slot]
		if op.mask == 0 {
			bitfield.Write(dst[:p.size], op.off, op.width, v)
			continue
		}
		w := dst[op.byte : op.byte+8]
		binary.BigEndian.PutUint64(w, binary.BigEndian.Uint64(w)&^op.mask|v<<op.shift&op.mask)
	}
	return p.size
}

// program returns the emit program for the current context, lowering it on
// the first packet after a context change.
func (d *Device) program() *emitProgram {
	if p := d.prog.Load(); p != nil {
		return p
	}
	p := d.lower()
	d.prog.Store(p)
	return p
}

// Lowered reports whether the device serializes completions under the
// current context with a lowered emit program rather than the reference
// interpreter (lowering first if the context changed since the last packet).
func (d *Device) Lowered() bool { return d.program().lowered }

// lower folds the deparser CFG under the context registers. It takes the
// same walk as serializeCompletion, but with an environment holding only
// the registers: a branch that reads per-packet metadata fails to evaluate,
// and the device keeps the reference interpreter for this context.
func (d *Device) lower() *emitProgram {
	ref := &emitProgram{need: allOffloads, pathIdx: -1}
	active, err := d.ActivePath()
	if err != nil {
		return ref
	}
	for i := range d.paths {
		if d.paths[i] == active {
			ref.pathIdx = i
		}
	}
	p := &emitProgram{lowered: true, pathIdx: ref.pathIdx}
	tmpl := make([]byte, maxCompletionBytes)
	info := d.graph.Info()
	env := foldEnv{d}
	node := d.graph.Entry
	offBits := 0
	for steps := 0; node.Kind != core.NodeExit; steps++ {
		if steps >= maxWalkSteps {
			return ref
		}
		if node.Kind == core.NodeEmit {
			for _, f := range node.Emit.Fields {
				if offBits+f.WidthBits > maxCompletionBytes*8 {
					return ref
				}
				if f.WidthBits <= 64 {
					switch slot, val := d.lowerField(f.Name); {
					case slot >= 0:
						p.need |= 1 << slot
						p.ops = append(p.ops, compileEmitOp(slot, offBits, f.WidthBits))
					case val != 0:
						bitfield.Write(tmpl, offBits, f.WidthBits, val)
					}
				}
				offBits += f.WidthBits
			}
		}
		next, err := d.step(node, env, info)
		if err != nil {
			return ref
		}
		node = next
	}
	p.size = (offBits + 7) / 8
	p.tmpl = tmpl[:p.size]
	return p
}

// lowerField resolves what the reference environment would hold for an
// emitted field: a metadata field reads its offload slot, a context
// register folds to its value, anything else is zero. slot is −1 for a
// field that is not an offload value; val is its folded constant.
func (d *Device) lowerField(name string) (slot int, val uint64) {
	if i, meta := d.fieldIndex[name]; meta {
		return d.envFields[i].slot, 0
	}
	return -1, d.ctx[name].Uint
}

// foldEnv is the environment branches fold under while lowering: the
// context registers, minus any name a metadata field shadows in the
// reference environment.
type foldEnv struct{ d *Device }

func (e foldEnv) Lookup(path string) (sema.Value, bool) {
	if _, meta := e.d.fieldIndex[path]; meta {
		return sema.Value{}, false
	}
	v, ok := e.d.ctx[path]
	return v, ok
}

// serializeCompletion walks the deparser CFG under env, writing emitted
// fields into dst, and returns the completion size in bytes.
func (d *Device) serializeCompletion(env sema.Env, dst []byte) (int, error) {
	for i := range dst {
		dst[i] = 0
	}
	info := d.graph.Info()
	node := d.graph.Entry
	offBits := 0
	steps := 0
	for node.Kind != core.NodeExit {
		if steps++; steps > maxWalkSteps {
			return 0, fmt.Errorf("nicsim: deparser walk did not terminate")
		}
		if node.Kind == core.NodeEmit {
			for _, f := range node.Emit.Fields {
				if offBits+f.WidthBits > len(dst)*8 {
					return 0, fmt.Errorf("nicsim: completion exceeds %d bytes", len(dst))
				}
				if f.WidthBits <= 64 {
					var v uint64
					if val, ok := env.Lookup(f.Name); ok {
						v = val.Uint
					}
					bitfield.Write(dst, offBits, f.WidthBits, v)
				}
				// >64-bit fields (pads) stay zero.
				offBits += f.WidthBits
			}
		}
		next, err := d.step(node, env, info)
		if err != nil {
			return 0, err
		}
		node = next
	}
	return (offBits + 7) / 8, nil
}

// step picks the successor edge of a node under the concrete env.
func (d *Device) step(node *core.Node, env sema.Env, info *sema.Info) (*core.Node, error) {
	if len(node.Succs) == 1 && node.Succs[0].Cond == nil && len(node.Succs[0].CaseVals) == 0 && !node.Succs[0].IsDefault {
		return node.Succs[0].To, nil
	}
	switch node.Kind {
	case core.NodeBranch:
		v, err := info.Eval(node.Cond, env)
		if err != nil {
			return nil, fmt.Errorf("nicsim: branch condition: %w", err)
		}
		for _, e := range node.Succs {
			if v.Truthy() != e.Negate {
				return e.To, nil
			}
		}
		return nil, fmt.Errorf("nicsim: no matching branch edge")
	case core.NodeSwitch:
		tag, err := info.Eval(node.Tag, env)
		if err != nil {
			return nil, fmt.Errorf("nicsim: switch tag: %w", err)
		}
		var def *core.Edge
		for _, e := range node.Succs {
			if e.IsDefault {
				def = e
				continue
			}
			for _, cv := range e.CaseVals {
				if cv.Equal(tag) {
					return e.To, nil
				}
			}
		}
		if def != nil {
			return def.To, nil
		}
		return nil, fmt.Errorf("nicsim: switch tag %v matches no case and no default", tag)
	default:
		if len(node.Succs) == 0 {
			return nil, fmt.Errorf("nicsim: dead-end node %d (%s)", node.ID, node.Kind)
		}
		return node.Succs[0].To, nil
	}
}

// RxBurst receives a batch of packets; returns how many were accepted.
func (d *Device) RxBurst(packets [][]byte) int {
	n := 0
	for _, p := range packets {
		if d.RxPacket(p) {
			n++
		}
	}
	return n
}
