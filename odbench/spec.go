package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloadsJSON fixes every workload parameter, including the open-loop
// offered rate, so nothing is derived from the machine at run time.
//
//go:embed workloads.json
var workloadsJSON []byte

type benchSpec struct {
	Burst           int            `json:"burst"`
	SliceMs         int            `json:"slice_ms"`
	LatencyWindowMs int            `json:"latency_window_ms"`
	SetupProbes     int            `json:"setup_probes"`
	CompileRounds   int            `json:"compile_rounds"`
	SpansKept       int            `json:"spans_kept"`
	LayerSum        layerSumSpec   `json:"layer_sum"`
	Workloads       []workloadSpec `json:"workloads"`
}

type layerSumSpec struct {
	Tolerance float64 `json:"tolerance"`
}

type workloadSpec struct {
	Name         string      `json:"name"`
	NIC          string      `json:"nic"`
	Semantics    []string    `json:"semantics"`
	Reads        [][]string  `json:"reads"`
	PhasePackets uint64      `json:"phase_packets"`
	OfferedPPS   float64     `json:"offered_pps"`
	Harden       string      `json:"harden"` // "", "structural" or "deep"
	Faults       *faultSpec  `json:"faults"`
	Tenants      *tenantSpec `json:"tenants"`
	Trace        traceSpec   `json:"trace"`
}

type faultSpec struct {
	Corrupt float64 `json:"corrupt"`
	Drop    float64 `json:"drop"`
}

type tenantSpec struct {
	Count             int        `json:"count"`
	Cores             int        `json:"cores"`
	Profiles          [][]string `json:"profiles"`
	RenegotiateEvery  uint64     `json:"renegotiate_every"`
	RenegotiateTenant int        `json:"renegotiate_tenant"`
	RenegotiateTo     [][]string `json:"renegotiate_to"`
}

type traceSpec struct {
	Generator       string  `json:"generator"`
	Packets         int     `json:"packets"`
	Flows           int     `json:"flows"`
	PayloadBytes    int     `json:"payload_bytes"`
	TCPFraction     float64 `json:"tcp_fraction"`
	VLANFraction    float64 `json:"vlan_fraction"`
	TunnelFraction  float64 `json:"tunnel_fraction"`
	BadCsumFraction float64 `json:"bad_csum_fraction"`
	KVFraction      float64 `json:"kv_fraction"`
	Skew            float64 `json:"skew"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(workloadsJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) (*workloadSpec, error) {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i], nil
		}
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
