package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"github.com/athena-sdn/athena/internal/controller"
	"github.com/athena-sdn/athena/internal/core"
	"github.com/athena-sdn/athena/internal/openflow"
	"github.com/athena-sdn/athena/internal/stream"
)

// feedLimit bounds the inputs fed to one layer alone.
const feedLimit = 20000

// Span names, one per layer boundary on the PacketIn path.
const (
	spanVerdict     = "e2e.send_to_verdict"
	spanFlowMod     = "e2e.send_to_flowmod"
	spanIngress     = "openflow.ingress"
	spanForwarding  = "controller.forwarding"
	spanDispatch    = "controller.dispatch"
	spanSouthbound  = "core.southbound"
	spanInsert      = "store.insert"
	spanNBValidator = "core.nb_validator"
)

// pinSpans builds one PacketIn's span tree from its stamps. The root
// runs from the switch's send to the verdict (steady) or to the FlowMod
// (flood); the children tile it: ingress up to the first controller
// processor, forwarding up to the first listener, listener dispatch up
// to the SB element, and the SB handle with its store insert and NB
// validator children.
func pinSpans(trace uint64, p *pin, steady bool) ([]span, error) {
	sent, proc, lis := p.sent.Load(), p.tProc.Load(), p.tLis.Load()
	sb0, sb1 := p.tSB0.Load(), p.tSB1.Load()
	if sent == 0 || proc == 0 || lis == 0 || sb0 == 0 || sb1 == 0 {
		return nil, fmt.Errorf("trace %x: missing stamps (sent %d proc %d listener %d sb %d-%d)", trace, sent, proc, lis, sb0, sb1)
	}
	root := span{Trace: trace, Parent: -1, Name: spanFlowMod, Start: sent, End: p.flowMod.Load()}
	if steady {
		root.Name, root.End = spanVerdict, p.verdict.Load()
	}
	if root.End == 0 {
		return nil, fmt.Errorf("trace %x: %s never ended", trace, root.Name)
	}
	spans := []span{
		root,
		{Name: spanIngress, Parent: 0, Start: sent, End: proc},
		{Name: spanForwarding, Parent: 0, Start: proc, End: lis},
		{Name: spanDispatch, Parent: 0, Start: lis, End: sb0},
		{Name: spanSouthbound, Parent: 0, Start: sb0, End: sb1},
	}
	if p.inserts.Load() > 0 {
		spans = append(spans, span{Name: spanInsert, Parent: 4, Start: p.tIns0.Load(), End: p.tIns1.Load()})
	}
	if steady {
		nb := p.tNB0.Load()
		if nb == 0 {
			return nil, fmt.Errorf("trace %x: missing NB validator stamp", trace)
		}
		spans = append(spans, span{Name: spanNBValidator, Parent: 4, Start: nb, End: root.End})
	}
	for i := range spans {
		spans[i].Trace, spans[i].ID = trace, i
		if spans[i].End < spans[i].Start {
			return nil, fmt.Errorf("trace %x: span %s ends before it starts", trace, spans[i].Name)
		}
	}
	return spans, nil
}

// traceLayers derives the per-layer metrics of a traced PacketIn phase:
// span medians, then each unreachable layer fed the phase's own inputs
// alone.
func (r *pktResult) traceLayers(st *pktStack) {
	if r.layers == nil {
		r.layers = map[string]float64{}
	}
	steady := st.cfg.steady
	// Trace ids are phase<<48 | dpid<<32 | sequence: unique in the span
	// file, which holds both PacketIn phases.
	phase := uint64(1)
	if steady {
		phase = 2
	}
	var ingress, forwarding, southbound, sbSelf []float64
	for _, s := range st.sw {
		for i := hostsPerSwitch; i < int(s.next); i++ {
			p := &s.pins[i]
			spans, err := pinSpans(phase<<48|s.dpid<<32|uint64(i+1), p, steady)
			if err != nil {
				r.fail(err)
				continue
			}
			if steady {
				if err := checkTiling(spans); err != nil {
					r.fail(err)
				}
			}
			r.traces = append(r.traces, spans)
			ingress = append(ingress, us(spans[1].End-spans[1].Start))
			forwarding = append(forwarding, us(spans[2].End-spans[2].Start))
			sb := spans[4]
			southbound = append(southbound, us(sb.End-sb.Start))
			sbSelf = append(sbSelf, us(selfTime(sb, spans[5:], sb.Start, sb.End)))
		}
	}
	r.layers["openflow.ingress_us_p50"] = median(ingress)
	r.layers["controller.forwarding_us_p50"] = median(forwarding)
	r.layers["core.southbound_us_p50"] = median(southbound)
	r.layers["core.southbound_self_us_p50"] = median(sbSelf)
	ins := make([]float64, len(st.inserts))
	for i, d := range st.inserts {
		ins[i] = us(d)
	}
	r.layers["store.insert_us_p50"] = median(ins)
	r.layers["store.inserts_per_event"] = float64(len(st.inserts)) / float64(r.offered+r.statEntries)
	r.layers["core.queue_dropped"] = float64(r.queueDropped)
	r.layers["store.docs_stored"] = float64(r.docsStored)

	pins := measuredPins(st)
	r.feedDecode(st, pins)
	r.feedGenerator(st, pins)
	if steady {
		r.feedStream(st)
		r.layers["stream.scores"] = float64(r.streamScores)
		r.layers["stream.skipped"] = float64(r.streamSkipped)
		r.layers["loadgen.late_ms_p99"] = median(r.lateP99)
	}
}

type pinRef struct {
	sw  int
	seq uint32
}

// measuredPins lists up to feedLimit of the phase's offered PacketIns,
// past the warm-up, alternating switches as the load did.
func measuredPins(st *pktStack) []pinRef {
	var out []pinRef
	for i := hostsPerSwitch; len(out) < feedLimit; i++ {
		added := false
		for _, s := range st.sw {
			if i < int(s.next) && len(out) < feedLimit {
				out = append(out, pinRef{s.idx, uint32(i + 1)})
				added = true
			}
		}
		if !added {
			break
		}
	}
	return out
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// repeatMedian runs fn reps times and returns the median of each of its
// two results.
func repeatMedian(reps int, fn func() (float64, float64)) (float64, float64) {
	a, b := make([]float64, reps), make([]float64, reps)
	for i := range a {
		a[i], b[i] = fn()
	}
	return median(a), median(b)
}

// feedDecode decodes the phase's own PacketIn frames with
// Conn.ReceiveBatch from memory.
func (r *pktResult) feedDecode(st *pktStack, pins []pinRef) {
	var wire []byte
	for _, p := range pins {
		pi := openflow.PacketIn{Reason: openflow.ReasonNoMatch, TotalLen: 128, Fields: st.plan.fields(p.sw, p.seq)}
		var err error
		if wire, err = openflow.AppendMessage(wire, &pi, p.seq); err != nil {
			r.fail(err)
			return
		}
	}
	ns, allocs := repeatMedian(3, func() (float64, float64) {
		conn := openflow.NewConn(&memConn{r: bytes.NewReader(wire)})
		defer conn.Close()
		var batch openflow.MessageBatch
		frames := 0
		m0, _ := memSnap()
		t0 := time.Now()
		for conn.ReceiveBatch(&batch) == nil {
			frames += batch.Len()
			batch.Release()
		}
		d := time.Since(t0)
		m1, _ := memSnap()
		if frames != len(pins) {
			r.fail(fmt.Errorf("decoded %d of %d frames", frames, len(pins)))
			return 0, 0
		}
		return float64(d.Nanoseconds()) / float64(frames), float64(m1-m0) / float64(frames)
	})
	r.layers["openflow.decode_ns_per_frame"] = ns
	r.layers["openflow.decode_allocs_per_frame"] = allocs
}

// feedGenerator runs Generator.ProcessAppend alone over the phase's
// PacketIns and flow-stats replies.
func (r *pktResult) feedGenerator(st *pktStack, pins []pinRef) {
	t := time.Now()
	msgs := make([]controller.ControlMessage, len(pins))
	for i, p := range pins {
		msgs[i] = controller.ControlMessage{
			Time: t, ControllerID: "bench", DPID: uint64(p.sw + 1), XID: p.seq,
			Msg: &openflow.PacketIn{Reason: openflow.ReasonNoMatch, TotalLen: 128, Fields: st.plan.fields(p.sw, p.seq)},
		}
	}
	var replies []controller.ControlMessage
	entries := 0
	for i, l := range st.stats {
		for _, rep := range l.replies {
			replies = append(replies, controller.ControlMessage{
				Time: t, ControllerID: "bench", DPID: uint64(i + 1), Marked: true, Msg: rep,
			})
			entries += len(rep.Flows)
		}
	}
	type out struct{ pinNs, statNs, allocs float64 }
	runs := make([]out, 3)
	for k := range runs {
		gen := core.NewGenerator(core.GeneratorConfig{})
		var feats []*core.Feature
		m0, _ := memSnap()
		t0 := time.Now()
		for _, m := range msgs {
			feats = gen.ProcessAppend(feats[:0], m)
		}
		t1 := time.Now()
		for _, m := range replies {
			feats = gen.ProcessAppend(feats[:0], m)
		}
		t2 := time.Now()
		m1, _ := memSnap()
		runs[k].pinNs = float64(t1.Sub(t0).Nanoseconds()) / float64(max(1, len(msgs)))
		if entries > 0 {
			runs[k].statNs = float64(t2.Sub(t1).Nanoseconds()) / float64(entries)
		}
		runs[k].allocs = float64(m1-m0) / float64(max(1, len(msgs)+len(replies)))
	}
	pick := func(f func(out) float64) float64 {
		v := make([]float64, len(runs))
		for i, o := range runs {
			v[i] = f(o)
		}
		return median(v)
	}
	r.layers["core.generator_packetin_ns"] = pick(func(o out) float64 { return o.pinNs })
	r.layers["core.generator_allocs_per_msg"] = pick(func(o out) float64 { return o.allocs })
	if entries > 0 {
		r.layers["core.generator_flowstats_ns_per_entry"] = pick(func(o out) float64 { return o.statNs })
	}
}

// feedStream scores the phase's own feature values with Engine.Observe
// alone.
func (r *pktResult) feedStream(st *pktStack) {
	obs := st.obs
	if len(obs) == 0 {
		r.fail(fmt.Errorf("no stream inputs were kept"))
		return
	}
	ns, allocs := repeatMedian(3, func() (float64, float64) {
		eng := stream.NewEngine(stream.Config{Enabled: true, Dims: stream.DefaultDims})
		defer eng.Close()
		ob := stream.Observation{DPID: 1}
		m0, _ := memSnap()
		t0 := time.Now()
		for i, v := range obs {
			ob.TimeNanos, ob.Vals = int64(i)*int64(time.Millisecond), v
			eng.Observe(&ob)
		}
		d := time.Since(t0)
		m1, _ := memSnap()
		return float64(d.Nanoseconds()) / float64(len(obs)), float64(m1-m0) / float64(len(obs))
	})
	r.layers["stream.observe_ns"] = ns
	r.layers["stream.observe_allocs"] = allocs
}

// memConn is a net.Conn that reads a fixed byte stream and discards
// writes, so a Conn can decode frames without a socket.
type memConn struct{ r *bytes.Reader }

func (c *memConn) Read(b []byte) (int, error)       { return c.r.Read(b) }
func (c *memConn) Write(b []byte) (int, error)      { return len(b), nil }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }
