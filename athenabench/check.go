package main

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/athena-sdn/athena/internal/core"
	"github.com/athena-sdn/athena/internal/ml"
)

// parseFlowKey reads the canonical flow key "proto/src:sport>dst:dport"
// with the benchmark's own parser.
func parseFlowKey(key string) (proto uint8, src uint32, sport uint16, dst uint32, dport uint16, err error) {
	bad := func() error { return fmt.Errorf("malformed flow key %q", key) }
	p, rest, ok := strings.Cut(key, "/")
	if !ok {
		return 0, 0, 0, 0, 0, bad()
	}
	a, b, ok := strings.Cut(rest, ">")
	if !ok {
		return 0, 0, 0, 0, 0, bad()
	}
	pv, err1 := strconv.ParseUint(p, 10, 8)
	src, sport, err2 := parseEndpoint(a)
	dst, dport, err3 := parseEndpoint(b)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, 0, 0, bad()
	}
	return uint8(pv), src, sport, dst, dport, nil
}

func parseEndpoint(s string) (uint32, uint16, error) {
	host, port, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("no port in %q", s)
	}
	parts := strings.Split(host, ".")
	if len(parts) != 4 {
		return 0, 0, fmt.Errorf("bad address %q", host)
	}
	var ip uint32
	for _, part := range parts {
		v, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, 0, err
		}
		ip = ip<<8 | uint32(v)
	}
	pv, err := strconv.ParseUint(port, 10, 16)
	return ip, uint16(pv), err
}

// seqOfFlowKey finds the PacketIn a feature's flow key names on switch
// sw and checks that every part of the key is the one the switch sent.
func seqOfFlowKey(p plan, sw int, capacity uint32, key string) (uint32, error) {
	proto, src, sport, dst, dport, err := parseFlowKey(key)
	if err != nil {
		return 0, err
	}
	if dport == 0 {
		return 0, fmt.Errorf("switch %d: flow key %q names no offered PacketIn", sw, key)
	}
	seq := uint32(dport-1)<<16 | uint32(sport)
	if seq == 0 || seq > capacity {
		return 0, fmt.Errorf("switch %d: flow key %q names no offered PacketIn", sw, key)
	}
	want := p.fields(sw, seq)
	if proto != want.IPProto || src != want.IPSrc || dst != want.IPDst {
		return 0, fmt.Errorf("switch %d: flow key %q does not match PacketIn %d", sw, key, seq)
	}
	return seq, nil
}

// checkStatFeature verifies that a flow-stats feature carries exactly
// the counters the switch reported for the entry.
func checkStatFeature(p plan, sw int, e statEntry, f *core.Feature) error {
	seq, err := seqOfFlowKey(p, sw, ^uint32(0), f.FlowKey)
	if err != nil {
		return err
	}
	if seq != e.seq {
		return fmt.Errorf("switch %d: flow-stats feature for flow %d, next reported entry is flow %d", sw, seq, e.seq)
	}
	dur := float64(e.durSec) + float64(e.durNanoSec)/1e9
	got := [3]float64{f.Value(core.FPacketCount), f.Value(core.FByteCount), f.Value(core.FDurationSec)}
	want := [3]float64{float64(e.packets), float64(e.bytes), dur}
	if got != want {
		return fmt.Errorf("switch %d: flow %d feature counters (packets, bytes, duration) %v, switch reported %v", sw, seq, got, want)
	}
	return nil
}

// tally scores every test record with the trained model, row by row,
// against the label the generator gave it.
func tally(model *core.DetectionModel, test []*core.Feature) ml.Confusion {
	var c ml.Confusion
	for _, f := range test {
		c.Add(model.IsAnomalous(f), f.Value(core.LabelField) == 1)
	}
	return c
}

// checkConfusion compares the cluster's confusion with the tally and
// the paper's detection envelope.
func checkConfusion(got, want ml.Confusion) error {
	if got != want {
		return fmt.Errorf("compute cluster confusion %+v, row-by-row tally %+v", got, want)
	}
	if dr, far := got.DetectionRate(), got.FalseAlarmRate(); dr < 0.95 || far > 0.10 {
		return fmt.Errorf("detection rate %.4f (want >= 0.95), false-alarm rate %.4f (want <= 0.10)", dr, far)
	}
	return nil
}

// checkCount compares a count the program reports with one the
// benchmark computed.
func checkCount(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s: program reports %d, benchmark counted %d", what, got, want)
	}
	return nil
}
