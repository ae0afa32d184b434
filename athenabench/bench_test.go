package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/athena-sdn/athena/internal/core"
	"github.com/athena-sdn/athena/internal/ml"
	"github.com/athena-sdn/athena/internal/openflow"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{1, 0.5, true, 1},
		{39, 0.5, true, 20},
		{39, 0.9, false, 0}, // under forty samples: the median alone
		{100, 0.9, true, 90},
		{99, 0.9, false, 0}, // nine samples beyond p90
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0}, // nine samples beyond p99
		{40, 0.99, false, 0},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, p=%g): err = %v, want ok=%v", c.n, c.p, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of an empty sample succeeded")
	}
}

// The run record's quartiles must read like statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := selfTime(parent, kids, 0, 100); got != 60 {
		t.Errorf("self time = %d, want 60 (overlapping children count once, overhang is clipped)", got)
	}
	if got := selfTime(parent, kids, 0, 50); got != 20 {
		t.Errorf("self time clipped to [0,50) = %d, want 20", got)
	}
	if got := selfTime(parent, nil, 0, 100); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
	if got := selfTime(span{Start: 10, End: 20}, []span{{Start: 10, End: 20}}, 0, 100); got != 0 {
		t.Errorf("fully covered span self time = %d, want 0", got)
	}
}

func TestCheckTiling(t *testing.T) {
	tiled := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 0, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 120}, // runs past the root
		{ID: 3, Parent: 2, Name: "c", Start: 40, End: 60},
	}
	if err := checkTiling(tiled); err != nil {
		t.Errorf("tiled trace rejected: %v", err)
	}
	gap := append([]span(nil), tiled...)
	gap[2].Start = 35 // 5 ns nobody accounts for
	if err := checkTiling(gap); err == nil {
		t.Error("trace with an unattributed gap accepted")
	}
}

func TestPinSpansTile(t *testing.T) {
	var p pin
	p.sent.Store(100)
	p.tProc.Store(140)
	p.tLis.Store(145)
	p.tSB0.Store(146)
	p.tIns0.Store(150)
	p.tIns1.Store(200)
	p.inserts.Store(1)
	p.tNB0.Store(210)
	p.verdict.Store(230)
	p.tSB1.Store(260)
	spans, err := pinSpans(1, &p, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTiling(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	// southbound runs 146..230 inside the root: 84 ns less the insert
	// (50) and the NB validator (20).
	if self[4] != 14 {
		t.Errorf("southbound self time = %d, want 14", self[4])
	}
	p.tLis.Store(0)
	if _, err := pinSpans(1, &p, true); err == nil {
		t.Error("PacketIn with a missing stamp accepted")
	}
}

func goodFlowMod(p plan, sw int, seq uint32) *openflow.FlowMod {
	_, dst := p.hosts(sw, seq)
	return &openflow.FlowMod{
		Match:   openflow.ExactMatch(p.fields(sw, seq)),
		Actions: []openflow.Action{openflow.Output(hostPort(dst))},
	}
}

func TestCheckFlowModRejectsWrongAnswers(t *testing.T) {
	p := plan{seed: 7}
	const sw, seqNo, capacity = 1, 1000, 5000
	if err := checkFlowMod(p, sw, capacity, goodFlowMod(p, sw, seqNo)); err != nil {
		t.Fatalf("correct FlowMod rejected: %v", err)
	}
	wrong := map[string]func(m *openflow.FlowMod){
		"wrong port": func(m *openflow.FlowMod) {
			port := m.Actions[0].(openflow.ActionOutput).Port
			m.Actions = []openflow.Action{openflow.Output(port%switchPorts + 1)}
		},
		"wrong destination": func(m *openflow.FlowMod) { m.Match.IPDst++ },
		"wrong in port":     func(m *openflow.FlowMod) { m.Match.InPort++ },
		"wildcarded":        func(m *openflow.FlowMod) { m.Match.Wildcards = openflow.WildAll },
		"two actions": func(m *openflow.FlowMod) {
			m.Actions = append(m.Actions, openflow.Output(1))
		},
		"never offered": func(m *openflow.FlowMod) { m.Match.TPDst = 200 },
	}
	for name, mutate := range wrong {
		m := goodFlowMod(p, sw, seqNo)
		mutate(m)
		if err := checkFlowMod(p, sw, capacity, m); err == nil {
			t.Errorf("%s: FlowMod accepted", name)
		}
	}
}

func flowKey(f openflow.Fields) string {
	ip := func(a uint32) string { return fmt.Sprintf("%d.%d.%d.%d", a>>24, a>>16&0xff, a>>8&0xff, a&0xff) }
	return fmt.Sprintf("%d/%s:%d>%s:%d", f.IPProto, ip(f.IPSrc), f.TPSrc, ip(f.IPDst), f.TPDst)
}

func TestSeqOfFlowKey(t *testing.T) {
	p := plan{seed: 3}
	f := p.fields(0, 70000) // a sequence number past 16 bits
	got, err := seqOfFlowKey(p, 0, 100000, flowKey(f))
	if err != nil || got != 70000 {
		t.Fatalf("seqOfFlowKey = %d, %v; want 70000", got, err)
	}
	bad := f
	bad.IPSrc++
	for _, key := range []string{flowKey(bad), "6/10.0.0.1:5", "garbage", strings.Replace(flowKey(f), "6/", "17/", 1)} {
		if _, err := seqOfFlowKey(p, 0, 100000, key); err == nil {
			t.Errorf("flow key %q accepted", key)
		}
	}
}

func TestCheckStatFeatureRejectsWrongCounters(t *testing.T) {
	p := plan{seed: 5}
	e := statEntry{seq: 300, packets: 12, bytes: 12 * 700, durSec: 3, durNanoSec: 250_000_000}
	feature := func(seqNo uint32, packets, bytes, dur float64) *core.Feature {
		f := core.NewFeature(map[string]float64{
			core.FPacketCount: packets, core.FByteCount: bytes, core.FDurationSec: dur,
		})
		f.FlowKey = flowKey(p.fields(1, seqNo))
		return f
	}
	if err := checkStatFeature(p, 1, e, feature(300, 12, 8400, 3.25)); err != nil {
		t.Fatalf("correct feature rejected: %v", err)
	}
	for name, f := range map[string]*core.Feature{
		"packets":  feature(300, 13, 8400, 3.25),
		"bytes":    feature(300, 12, 8401, 3.25),
		"duration": feature(300, 12, 8400, 3.5),
		"flow":     feature(301, 12, 8400, 3.25),
	} {
		if err := checkStatFeature(p, 1, e, f); err == nil {
			t.Errorf("feature with wrong %s accepted", name)
		}
	}
}

func TestCheckConfusion(t *testing.T) {
	good := ml.Confusion{TP: 980, FN: 20, TN: 950, FP: 50}
	if err := checkConfusion(good, good); err != nil {
		t.Fatalf("matching confusion rejected: %v", err)
	}
	off := good
	off.TP--
	off.FN++
	if err := checkConfusion(good, off); err == nil {
		t.Error("confusion differing from the tally accepted")
	}
	poor := ml.Confusion{TP: 900, FN: 100, TN: 950, FP: 50} // DR 0.90
	if err := checkConfusion(poor, poor); err == nil {
		t.Error("detection rate below 0.95 accepted")
	}
	noisy := ml.Confusion{TP: 990, FN: 10, TN: 800, FP: 200} // FAR 0.20
	if err := checkConfusion(noisy, noisy); err == nil {
		t.Error("false-alarm rate above 0.10 accepted")
	}
	if err := checkCount("docs", 9, 10); err == nil {
		t.Error("count mismatch accepted")
	}
}

func TestReadCommit(t *testing.T) {
	dir := t.TempDir()
	if got := readCommit(dir); got != "" {
		t.Errorf("commit outside a repository = %q", got)
	}
	const sha = "24fac794a7001b606e7273a569ae4d5710271c16"
	write := func(name, body string) {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("HEAD", "ref: refs/heads/main\n")
	write("packed-refs", "# pack-refs with: peeled\n"+sha+" refs/heads/main\n")
	if got := readCommit(dir); got != sha {
		t.Errorf("commit from packed-refs = %q, want %s", got, sha)
	}
	write("refs/heads/main", strings.Repeat("a", 40)+"\n")
	if got := readCommit(dir); got != strings.Repeat("a", 40) {
		t.Errorf("commit from loose ref = %q", got)
	}
}
