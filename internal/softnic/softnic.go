// Package softnic provides the software reference implementation of every
// emulable semantic — the "SoftNIC-like framework [that] emulates each
// missing semantic at a run-time cost" of the paper. The OpenDesc compiler
// links these functions as shims for the semantics the selected completion
// layout does not provide, and the calibration routine measures w(s) on the
// running machine to replace the static cost table.
package softnic

import (
	"bytes"
	"encoding/binary"
	"sync"
	"time"

	"opendesc/internal/codegen"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
)

// DefaultToeplitzKey is the Microsoft RSS reference hash key.
var DefaultToeplitzKey = [40]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// SymmetricToeplitzKey is a repeating 16-bit-pattern key (0x6d5a). A
// Toeplitz key whose bits repeat with period 16 makes the hash invariant
// under swapping (src IP, dst IP) and (src port, dst port) — every field
// moves by a multiple of 16 bits — so both directions of a flow land on the
// same RSS queue. The multi-tenant serving plane steers with this key.
var SymmetricToeplitzKey = [40]byte{
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
}

// Toeplitz computes the Toeplitz hash of input under key, as NIC RSS engines
// do. It is the body of the SoftNIC rss shim and the reference every
// ToeplitzTable is tested against. It stays bit-serial on purpose: the rss
// shim's measured cost is what E11's streaming collapse, E12 and the
// calibrated w(rss) that feeds Eq. 1 and E15 rest on, so it may only get
// faster once E11 is restated as a deterministic work count (ROADMAP 5(a)).
// Engines that model RSS silicon use ToeplitzTableFor instead.
func Toeplitz(key []byte, input []byte) uint32 {
	if len(key) < 4 {
		return 0 // no 32-bit window ever forms
	}
	var hash uint32
	for i, in := range input {
		if in == 0 {
			continue // zero byte XORs nothing
		}
		// 64 key bits starting at byte i (zero-padded past the end):
		// bits b..b+31 of this window are the Toeplitz window for input
		// bit b (MSB first) of byte i.
		var w uint64
		for k := i; k < i+8; k++ {
			w <<= 8
			if k < len(key) {
				w |= uint64(key[k])
			}
		}
		for b := 0; b < 8; b++ {
			if in&(0x80>>b) != 0 {
				hash ^= uint32(w >> (32 - b))
			}
		}
	}
	return hash
}

// RSS computes the standard 5-tuple (or 2-tuple for non-TCP/UDP) Toeplitz
// RSS hash of a decoded packet under the Microsoft reference key.
func RSS(in *pkt.Info) uint32 { return RSSKey(DefaultToeplitzKey[:], in) }

// RSSKey is RSS under an explicit Toeplitz key (e.g. SymmetricToeplitzKey
// for direction-invariant steering). Non-IP packets hash to 0.
func RSSKey(key []byte, in *pkt.Info) uint32 {
	var buf [36]byte
	n := 0
	switch in.L3 {
	case pkt.L3IPv4:
		n += copy(buf[n:], in.SrcIP[:4])
		n += copy(buf[n:], in.DstIP[:4])
	case pkt.L3IPv6:
		n += copy(buf[n:], in.SrcIP[:])
		n += copy(buf[n:], in.DstIP[:])
	default:
		return 0
	}
	if in.L4 == pkt.L4TCP || in.L4 == pkt.L4UDP {
		binary.BigEndian.PutUint16(buf[n:], in.SrcPort)
		binary.BigEndian.PutUint16(buf[n+2:], in.DstPort)
		n += 4
	}
	return Toeplitz(key, buf[:n])
}

// toeplitzRows is the number of input bytes a ToeplitzTable covers: the
// longest RSS input, an IPv6 4-tuple.
const toeplitzRows = 36

// ToeplitzTable is the Toeplitz hash under one key precomputed the way RSS
// silicon evaluates it: row i holds, for each value of input byte i, the XOR
// of the 32-bit key windows that byte's set bits select, so a hash costs one
// load and one XOR per input byte. The 36 KiB of rows are built on first
// use, not when the table is made.
type ToeplitzTable struct {
	key  []byte
	once sync.Once
	rows *[toeplitzRows][256]uint32
}

var (
	defaultToeplitzTable   = &ToeplitzTable{key: DefaultToeplitzKey[:]}
	symmetricToeplitzTable = &ToeplitzTable{key: SymmetricToeplitzKey[:]}
)

// ToeplitzTableFor returns the table for key: one shared per process for
// DefaultToeplitzKey and SymmetricToeplitzKey, a new one (holding a copy of
// key) for any other key.
func ToeplitzTableFor(key []byte) *ToeplitzTable {
	switch {
	case bytes.Equal(key, DefaultToeplitzKey[:]):
		return defaultToeplitzTable
	case bytes.Equal(key, SymmetricToeplitzKey[:]):
		return symmetricToeplitzTable
	}
	return &ToeplitzTable{key: bytes.Clone(key)}
}

// table returns the rows, building them on the first call. Row i is built
// from the eight windows of input byte i: window b (input bit 8i+b, MSB
// first) is key bits 8i+b..8i+b+31, zero-padded past the end of the key.
// The row doubles one bit at a time, from the byte's least significant bit:
// the entries with that bit set are the entries below it XOR its window.
func (t *ToeplitzTable) table() *[toeplitzRows][256]uint32 {
	t.once.Do(func() {
		rows := new([toeplitzRows][256]uint32)
		if len(t.key) >= 4 { // a shorter key forms no window: Toeplitz is 0
			for i := range rows {
				var w uint64 // key bits 8i..8i+63
				for k := i; k < i+8; k++ {
					w <<= 8
					if k < len(t.key) {
						w |= uint64(t.key[k])
					}
				}
				row := &rows[i]
				for b := 7; b >= 0; b-- {
					win, bit := uint32(w>>(32-b)), 0x80>>b
					hi := row[bit : 2*bit]
					for v, x := range row[:bit] {
						hi[v] = x ^ win
					}
				}
			}
		}
		t.rows = rows
	})
	return t.rows
}

// hash equals Toeplitz(key, input) for inputs of at most 36 B.
func (t *ToeplitzTable) hash(input []byte) uint32 {
	rows := t.table()
	var h uint32
	for i, b := range input {
		h ^= rows[i][b]
	}
	return h
}

// RSS equals RSSKey(key, in): the same tuple, hashed field by field straight
// from the decoded packet.
func (t *ToeplitzTable) RSS(in *pkt.Info) uint32 {
	var n int
	switch in.L3 {
	case pkt.L3IPv4:
		n = 4
	case pkt.L3IPv6:
		n = 16
	default:
		return 0
	}
	rows := t.table()
	var h uint32
	for i := 0; i < n; i++ {
		h ^= rows[i][in.SrcIP[i]] ^ rows[n+i][in.DstIP[i]]
	}
	if in.L4 == pkt.L4TCP || in.L4 == pkt.L4UDP {
		p := rows[2*n : 2*n+4]
		h ^= p[0][in.SrcPort>>8] ^ p[1][byte(in.SrcPort)] ^ p[2][in.DstPort>>8] ^ p[3][byte(in.DstPort)]
	}
	return h
}

// FlowID computes a symmetric exact-match flow identifier (FNV-1a over the
// sorted 5-tuple) — software stand-in for NIC flow-table match results.
func FlowID(in *pkt.Info) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(b byte) { h = (h ^ uint32(b)) * prime32 }
	a, b := in.SrcIP, in.DstIP
	pa, pb := in.SrcPort, in.DstPort
	// Symmetric ordering so both directions map to one flow.
	swap := false
	for i := range a {
		if a[i] != b[i] {
			swap = a[i] > b[i]
			break
		}
	}
	if swap {
		a, b = b, a
		pa, pb = pb, pa
	}
	for _, x := range a {
		mix(x)
	}
	for _, x := range b {
		mix(x)
	}
	mix(byte(pa >> 8))
	mix(byte(pa))
	mix(byte(pb >> 8))
	mix(byte(pb))
	mix(in.IPProto)
	return h
}

// ipv4Header returns the IPv4 header of in, or nil when the packet is not
// IPv4 or its IHL is out of range.
func ipv4Header(in *pkt.Info) []byte {
	if in.L3 != pkt.L3IPv4 || in.L3Off < 0 {
		return nil
	}
	hdr := in.Data[in.L3Off:]
	ihl := int(hdr[0]&0x0F) * 4
	if ihl < pkt.IPv4MinLen || in.L3Off+ihl > len(in.Data) {
		return nil
	}
	return hdr[:ihl]
}

// IPChecksum recomputes the IPv4 header checksum (0 for non-IPv4).
func IPChecksum(in *pkt.Info) uint16 {
	hdr := ipv4Header(in)
	if hdr == nil {
		return 0
	}
	return pkt.IPv4HeaderChecksum(hdr)
}

// L4Checksum recomputes the TCP/UDP checksum including pseudo-header.
func L4Checksum(in *pkt.Info) uint16 {
	c, _ := pkt.L4Checksum(in)
	return c
}

// VLANTCI extracts the outer VLAN TCI (0 when untagged).
func VLANTCI(in *pkt.Info) uint16 { return in.OuterTCI() }

// PType returns the parsed packet-type code.
func PType(in *pkt.Info) uint8 { return in.PTypeCode() }

// PayloadHash hashes the L4 payload (FNV-1a), a software stand-in for
// accelerator-computed digests (RegEx pre-filters and similar).
func PayloadHash(in *pkt.Info) uint32 {
	const prime32 = 16777619
	h := uint32(2166136261)
	for _, b := range in.Payload() {
		h = (h ^ uint32(b)) * prime32
	}
	return h
}

// KVKey extracts the key digest of a key-value-store request carried as the
// packet payload. The recognized wire format is "get <key>\r\n" /
// "set <key> ..." (memcached-style); the digest is FNV-1a64 over the key
// bytes, which is what a FlexNIC-style offload would steer on.
func KVKey(in *pkt.Info) uint64 {
	p := in.Payload()
	// Skip the verb and its space.
	sp := bytes.IndexByte(p, ' ')
	if sp < 0 {
		return 0
	}
	start := sp + 1
	i := start
	for i < len(p) && p[i] != ' ' && p[i] != '\r' && p[i] != '\n' {
		i++
	}
	if i == start {
		return 0
	}
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, b := range p[start:i] {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// ErrorFlags reports checksum errors of a decoded packet: bit 0 a bad IPv4
// header checksum, bit 1 a bad TCP/UDP checksum.
func ErrorFlags(in *pkt.Info) uint64 {
	l4, ok := pkt.L4Checksum(in)
	return ErrorFlagsL4(in, l4, ok)
}

// ErrorFlagsL4 is ErrorFlags for a caller that already ran pkt.L4Checksum
// on in (l4, ok are its results): the TCP/UDP bit compares l4 with the
// header field exactly as pkt.VerifyL4 does, without a second pass over the
// segment.
func ErrorFlagsL4(in *pkt.Info, l4 uint16, ok bool) uint64 {
	var f uint64
	if hdr := ipv4Header(in); hdr != nil && !pkt.VerifyIPv4Header(hdr) {
		f |= 1
	}
	if (in.L4 == pkt.L4TCP || in.L4 == pkt.L4UDP) && !(ok && pkt.L4ChecksumMatches(in, l4)) {
		f |= 2
	}
	return f
}

// ChecksumAny reports the deepest layer a checksum engine covers: 0 none,
// 1 the IPv4 header, 2 TCP/UDP.
func ChecksumAny(in *pkt.Info) uint64 {
	switch {
	case in.L4 == pkt.L4TCP || in.L4 == pkt.L4UDP:
		return 2
	case in.L3 == pkt.L3IPv4:
		return 1
	}
	return 0
}

// ParserDepth counts the layers the parser reached: L2, plus L3 and L4 when
// present.
func ParserDepth(in *pkt.Info) uint64 {
	d := uint64(1)
	if in.L3 != pkt.L3None {
		d++
	}
	if in.L4 != pkt.L4None {
		d++
	}
	return d
}

// TunnelID extracts the VXLAN VNI when the packet is a VXLAN encapsulation
// (UDP dst 4789), else 0.
func TunnelID(in *pkt.Info) uint32 {
	if in.L4 != pkt.L4UDP || in.DstPort != 4789 {
		return 0
	}
	p := in.Payload()
	if len(p) < 8 {
		return 0
	}
	return uint32(p[4])<<16 | uint32(p[5])<<8 | uint32(p[6])
}

// Funcs returns the SoftNIC shim table for the codegen runtime: each function
// decodes the raw packet and computes one semantic. Decoding cost is paid per
// call, exactly as a software fallback on a descriptor-less datapath would.
func Funcs() map[semantics.Name]codegen.SoftFunc {
	perPacket := func(f func(*pkt.Info) uint64) codegen.SoftFunc {
		return func(packet []byte) uint64 {
			var in pkt.Info
			if err := pkt.Decode(packet, &in); err != nil {
				return 0
			}
			return f(&in)
		}
	}
	return map[semantics.Name]codegen.SoftFunc{
		semantics.RSS:        perPacket(func(in *pkt.Info) uint64 { return uint64(RSS(in)) }),
		semantics.IPChecksum: perPacket(func(in *pkt.Info) uint64 { return uint64(IPChecksum(in)) }),
		semantics.L4Checksum: perPacket(func(in *pkt.Info) uint64 { return uint64(L4Checksum(in)) }),
		// VLAN needs no full decode: peek the EtherType and TCI directly
		// (this is why w(vlan) is among the cheapest costs in the model).
		semantics.VLAN: func(packet []byte) uint64 {
			if len(packet) < pkt.EthHeaderLen+pkt.VLANTagLen {
				return 0
			}
			et := uint16(packet[12])<<8 | uint16(packet[13])
			if et != pkt.EtherTypeVLAN && et != pkt.EtherTypeQinQ {
				return 0
			}
			return uint64(packet[14])<<8 | uint64(packet[15])
		},
		semantics.PType:       perPacket(func(in *pkt.Info) uint64 { return uint64(PType(in)) }),
		semantics.FlowID:      perPacket(func(in *pkt.Info) uint64 { return uint64(FlowID(in)) }),
		semantics.IPID:        perPacket(func(in *pkt.Info) uint64 { return uint64(in.IPID) }),
		semantics.PktLen:      func(packet []byte) uint64 { return uint64(len(packet)) },
		semantics.KVKey:       perPacket(KVKey),
		semantics.PayloadHash: perPacket(func(in *pkt.Info) uint64 { return uint64(PayloadHash(in)) }),
		semantics.TunnelID:    perPacket(func(in *pkt.Info) uint64 { return uint64(TunnelID(in)) }),
		semantics.DecapFlag:   perPacket(func(in *pkt.Info) uint64 { return boolBit(TunnelID(in) != 0) }),
		semantics.L4Port:      perPacket(func(in *pkt.Info) uint64 { return uint64(in.DstPort) }),
		semantics.SegCnt:      func(packet []byte) uint64 { return 1 },
		semantics.ErrorFlags:  perPacket(ErrorFlags),
		semantics.ChecksumAny: perPacket(ChecksumAny),
		semantics.ParserDepth: perPacket(ParserDepth),
		// queue_id: the polling thread knows which queue it drains; the shim
		// returns the conventional single-queue id and datapaths that spread
		// over queues bind their own closure instead.
		semantics.QueueID: func(packet []byte) uint64 { return 0 },
		semantics.InnerCsum: perPacket(func(in *pkt.Info) uint64 {
			return uint64(innerChecksumStatus(in))
		}),
	}
}

// innerChecksumStatus validates the checksum of a VXLAN-encapsulated inner
// frame: 0 = no tunnel, 1 = inner valid, 2 = inner invalid/undecodable.
func innerChecksumStatus(in *pkt.Info) uint8 {
	if TunnelID(in) == 0 {
		return 0
	}
	p := in.Payload()
	if len(p) < 8+pkt.EthHeaderLen {
		return 2
	}
	var inner pkt.Info
	if err := pkt.Decode(p[8:], &inner); err != nil {
		return 2
	}
	if inner.L3 == pkt.L3IPv4 && inner.L3Off >= 0 {
		if hdr := ipv4Header(&inner); hdr == nil || !pkt.VerifyIPv4Header(hdr) {
			return 2
		}
	}
	return 1
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Calibrate measures the per-packet cost of each emulable semantic on the
// running machine over the supplied sample packets and returns a measured
// cost model (in nanoseconds). This is the dynamic alternative to the static
// table — DESIGN.md's "cost model source" ablation.
func Calibrate(samples [][]byte, rounds int) map[semantics.Name]float64 {
	if rounds <= 0 {
		rounds = 64
	}
	out := make(map[semantics.Name]float64)
	funcs := Funcs()
	var sink uint64
	for name, f := range funcs {
		start := time.Now()
		n := 0
		for r := 0; r < rounds; r++ {
			for _, s := range samples {
				sink += f(s)
				n++
			}
		}
		if n > 0 {
			out[name] = float64(time.Since(start).Nanoseconds()) / float64(n)
		}
	}
	_ = sink
	return out
}

// CalibratedCosts wraps Calibrate results as a cost model, falling back to
// the registry for semantics without software implementation (∞ cost ones).
func CalibratedCosts(reg *semantics.Registry, samples [][]byte, rounds int) semantics.CostModel {
	measured := Calibrate(samples, rounds)
	base := semantics.RegistryCosts(reg)
	return func(n semantics.Name) float64 {
		if v, ok := measured[n]; ok {
			return v
		}
		return base(n)
	}
}
