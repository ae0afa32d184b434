package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one timed interval recorded by the benchmark at a layer
// boundary. Spans of one PacketIn share its trace id; Parent indexes
// the causing span within the same trace (-1 for the root). Times are
// nanoseconds on the benchmark's monotonic clock.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime is the part of s's interval, clipped to [lo, hi), that none
// of its children cover. Children may overlap one another or stick out
// of s; only their union inside the clipped interval counts.
func selfTime(s span, children []span, lo, hi int64) int64 {
	start, end := max(s.Start, lo), min(s.End, hi)
	if end <= start {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		cs, ce := max(c.Start, start), min(c.End, end)
		if ce > cs {
			iv = append(iv, [2]int64{cs, ce})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	if curE > curS {
		covered += curE - curS
	}
	return end - start - covered
}

// selfTimes computes every span's self time within one trace, clipped
// to the root's interval. spans[i].ID must equal i; spans[0] is the
// root.
func selfTimes(spans []span) []int64 {
	kids := make([][]span, len(spans))
	for _, s := range spans[1:] {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	root := spans[0]
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = selfTime(s, kids[i], root.Start, root.End)
	}
	return out
}

// checkTiling verifies that the spans below the root account for the
// whole root interval: their self times add up to the root's duration,
// so the root keeps no unattributed time.
func checkTiling(spans []span) error {
	self := selfTimes(spans)
	var sum int64
	for _, v := range self[1:] {
		sum += v
	}
	if d := spans[0].End - spans[0].Start; sum != d {
		return fmt.Errorf("trace %d: layer self times add up to %d ns, root %s lasts %d ns",
			spans[0].Trace, sum, spans[0].Name, d)
	}
	return nil
}

// floodSpanEvery thins the flood phase's traces in the span file (the
// per-layer metrics use them all): a saturated flood offers about 25k
// PacketIns a second.
const floodSpanEvery = 16

// sampleTraces keeps every n-th trace.
func sampleTraces(traces [][]span, n int) [][]span {
	var out [][]span
	for i := 0; i < len(traces); i += n {
		out = append(out, traces[i])
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, traces [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range traces {
		for _, s := range t {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
