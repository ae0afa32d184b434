package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/athena-sdn/athena/internal/core"
	"github.com/athena-sdn/athena/internal/store"
)

// pktResult is what one PacketIn phase measured.
type pktResult struct {
	setup []float64 // s, one per boot

	// End-to-end, one value per measured round.
	rps                    []float64 // flood: FlowMods received per second
	flowP50, flowP99       []float64 // steady: due -> FlowMod, ms
	verdictP50, verdictP99 []float64 // steady: due -> verdict, ms
	cpuPerEvent            []float64 // steady: µs of process CPU per offered PacketIn
	lateP99                []float64 // steady: send - due, ms

	attempted, failed int64
	errs              []error // wrong answers and failed checks

	// Work counts.
	offered, statEntries, docsStored int64
	queueDropped                     uint64
	streamScores, streamSkipped      uint64

	layers map[string]float64 // traced run only
	traces [][]span           // traced run only
}

func (r *pktResult) fail(err error) { r.errs = append(r.errs, err) }

// runPkt boots the phase `boots` times (the last boot is measured),
// drives the load, drains and checks.
func runPkt(cfg pktConfig, boots int) (*pktResult, error) {
	res := &pktResult{}
	measured := time.Duration(cfg.rounds+1) * roundDur
	capacity := hostsPerSwitch + 64
	if cfg.steady {
		capacity += int(steadyRate/numSwitches*measured.Seconds()) + sendBatch
	} else {
		// Room for three times the rate the closed loop reaches per
		// switch on an idle 2-core host.
		perSwitch := 40000.0
		if cfg.athena != "sync" {
			perSwitch = 240000 // the Table IX reference rows without the store
		}
		capacity += int(perSwitch * measured.Seconds())
	}
	var st *pktStack
	for b := 0; b < boots; b++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = bootPkt(cfg, capacity); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	defer st.close()

	if cfg.steady {
		res.measureSteady(st, measured)
	} else {
		res.measureFlood(st, measured)
	}
	res.drainAndCheck(st)
	if cfg.trace {
		res.traceLayers(st)
	}
	return res, nil
}

// measureFlood runs the closed loop: each switch keeps floodWindow
// PacketIns unanswered. Rounds are read off the FlowMod counter.
func (r *pktResult) measureFlood(st *pktStack, measured time.Duration) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sendErr error
	var errMu sync.Mutex
	for _, s := range st.sw {
		wg.Add(1)
		go func(s *emuSwitch) {
			defer wg.Done()
			var frames []byte
			for {
				select {
				case <-stop:
					return
				case s.window <- struct{}{}:
				}
				n := 1
				for n < sendBatch {
					select {
					case s.window <- struct{}{}:
						n++
						continue
					default:
					}
					break
				}
				if int(s.next)+n > len(s.pins) {
					return
				}
				var err error
				if frames, err = s.send(n, nil, frames); err != nil {
					errMu.Lock()
					sendErr = err
					errMu.Unlock()
					return
				}
			}
		}(s)
	}
	start := time.Now()
	var m0, p0 uint64
	var prev, warm int64
	var prevT time.Time
	for k := 0; k <= st.cfg.rounds; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k+1) * roundDur)))
		t, c := time.Now(), st.flowMods()
		if k > 0 { // round 0 warms the system up
			r.rps = append(r.rps, float64(c-prev)/t.Sub(prevT).Seconds())
		} else {
			warm = c
			if st.cfg.trace {
				m0, p0 = memSnap()
			}
		}
		prev, prevT = c, t
	}
	var m1, p1 uint64
	if st.cfg.trace {
		m1, p1 = memSnap()
	}
	close(stop)
	wg.Wait()
	if sendErr != nil {
		r.fail(fmt.Errorf("flood send: %w", sendErr))
	}
	r.setProcess(st, m1-m0, p1-p0, prev-warm)
}

// measureSteady runs the open loop: each switch offers steadyRate/2
// PacketIns per second on a fixed schedule, timed from when each was
// due.
func (r *pktResult) measureSteady(st *pktStack, measured time.Duration) {
	perSwitch := steadyRate / numSwitches
	interval := float64(time.Second) / perSwitch
	start := now() + int64(5*time.Millisecond)
	end := start + int64(measured)
	var wg sync.WaitGroup
	var sendErr error
	var errMu sync.Mutex
	for _, s := range st.sw {
		wg.Add(1)
		go func(s *emuSwitch) {
			defer wg.Done()
			var frames []byte
			dueOf := func(k uint32) int64 { return start + int64(float64(k)*interval) }
			for k := uint32(0); ; {
				d := dueOf(k)
				if d >= end {
					return
				}
				if w := d - now(); w > 0 {
					time.Sleep(time.Duration(w))
				}
				n := 0
				t := now()
				for n < sendBatch && dueOf(k+uint32(n)) <= t && dueOf(k+uint32(n)) < end {
					n++
				}
				if n == 0 {
					continue
				}
				if int(s.next)+n > len(s.pins) {
					return
				}
				k0 := k
				var err error
				frames, err = s.send(n, func(i int) int64 { return dueOf(k0 + uint32(i)) }, frames)
				if err != nil {
					errMu.Lock()
					sendErr = err
					errMu.Unlock()
					return
				}
				k += uint32(n)
			}
		}(s)
	}
	// Round boundaries on the due-time axis; CPU is read at each one.
	cpu := make([]int64, st.cfg.rounds+2)
	var m0, p0 uint64
	for k := 0; k <= st.cfg.rounds+1; k++ {
		if w := start + int64(k)*int64(roundDur) - now(); w > 0 {
			time.Sleep(time.Duration(w))
		}
		cpu[k] = cpuNanos()
		if k == 1 && st.cfg.trace {
			m0, p0 = memSnap()
		}
	}
	var m1, p1 uint64
	if st.cfg.trace {
		m1, p1 = memSnap()
	}
	wg.Wait()
	if sendErr != nil {
		r.fail(fmt.Errorf("open-loop send: %w", sendErr))
	}
	// Per-round samples: PacketIns due in [start+k, start+k+1) rounds,
	// round 0 being the warm round.
	var measuredEvents int64
	for k := 1; k <= st.cfg.rounds; k++ {
		lo, hi := start+int64(k)*int64(roundDur), start+int64(k+1)*int64(roundDur)
		var flow, verdict, late []float64
		for _, s := range st.sw {
			for i := hostsPerSwitch; i < int(s.next); i++ {
				p := &s.pins[i]
				d := p.due.Load()
				if d < lo || d >= hi {
					continue
				}
				late = append(late, ms(p.sent.Load()-d))
				if f := p.flowMod.Load(); f != 0 {
					flow = append(flow, ms(f-d))
				}
				if v := p.verdict.Load(); v != 0 {
					verdict = append(verdict, ms(v-d))
				}
			}
		}
		measuredEvents += int64(len(late))
		r.flowP50 = appendPct(r, r.flowP50, flow, 0.5)
		r.flowP99 = appendPct(r, r.flowP99, flow, 0.99)
		r.verdictP50 = appendPct(r, r.verdictP50, verdict, 0.5)
		r.verdictP99 = appendPct(r, r.verdictP99, verdict, 0.99)
		r.lateP99 = appendPct(r, r.lateP99, late, 0.99)
		if len(late) > 0 {
			r.cpuPerEvent = append(r.cpuPerEvent, float64(cpu[k+1]-cpu[k])/1e3/float64(len(late)))
		}
	}
	r.setProcess(st, m1-m0, p1-p0, measuredEvents)
}

// setProcess keeps the process allocation and GC counters of the
// measured rounds (traced run only: ReadMemStats stops the world).
func (r *pktResult) setProcess(st *pktStack, mallocs, pauseNs uint64, events int64) {
	if !st.cfg.trace || events == 0 {
		return
	}
	if r.layers == nil {
		r.layers = map[string]float64{}
	}
	r.layers["process.allocs_per_event"] = float64(mallocs) / float64(events)
	r.layers["process.gc_pause_ms"] = float64(pauseNs) / 1e6
}

// appendPct appends the p-quantile of a round's samples. A median of
// no samples is a failed measurement; a tail the round's sample cannot
// support is left out.
func appendPct(r *pktResult, dst, xs []float64, p float64) []float64 {
	v, err := percentile(xs, p)
	if err != nil {
		if p <= 0.5 {
			r.fail(err)
		}
		return dst
	}
	return append(dst, v)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// drainAndCheck waits, by counting, for every answer and every stored
// document up to drainTimeout, then checks the answers and counts.
func (r *pktResult) drainAndCheck(st *pktStack) {
	steady := st.cfg.steady
	sent := st.sent()
	// A timeout is not an error here: whatever is still missing is
	// counted as failed below.
	_ = waitFor(drainTimeout, func() bool {
		return st.flowMods() == sent && (!steady || st.verdicts.Load() == sent)
	})
	for _, l := range st.stats {
		l.freeze()
	}
	entries := int64(0)
	for _, l := range st.stats {
		entries += int64(l.reported())
	}
	wantIn, wantStats := sent, entries
	var gotIn, gotStats int
	if st.check != nil {
		count := func(origin string) int {
			n, err := st.check.Count(store.Filter{Tags: []store.TagCond{{Tag: "origin", Equals: true, Value: origin}}})
			if err != nil {
				r.fail(fmt.Errorf("store count %s: %w", origin, err))
				return -1
			}
			return n
		}
		_ = waitFor(drainTimeout, func() bool {
			gotIn = count(core.OriginPacketIn)
			gotStats = count(core.OriginFlowStats)
			return int64(gotIn) == wantIn && int64(gotStats) == wantStats
		})
		if int64(gotIn) != wantIn || int64(gotStats) != wantStats {
			r.fail(fmt.Errorf("store holds %d packet_in and %d flow_stats documents, want %d and %d",
				gotIn, gotStats, wantIn, wantStats))
		}
		r.docsStored = int64(gotIn + gotStats)
	}
	// Stopping the controller waits for its sessions, so every
	// inline SB pass (stream scoring included) has finished.
	st.stopNetwork()

	r.offered, r.statEntries = sent, entries
	r.attempted = sent + entries
	// An operation fails when an answer it is owed is missing.
	for _, s := range st.sw {
		for i := 0; i < int(s.next); i++ {
			p := &s.pins[i]
			if p.flowMods.Load() != 1 || (steady && p.verdicts.Load() != 1) {
				r.failed++
			}
		}
	}
	if steady {
		if got := st.statFeatures.Load(); got < entries {
			r.failed += entries - got
		} else if got > entries {
			r.fail(fmt.Errorf("%d flow-stats features for %d reported entries", got, entries))
		}
	}
	if st.check != nil {
		missing := max(0, wantIn-int64(gotIn)) + max(0, wantStats-int64(gotStats))
		r.failed += missing
	}
	for _, s := range st.sw {
		if err := s.bad.get(); err != nil {
			r.fail(err)
		}
	}
	if err := st.bad.get(); err != nil {
		r.fail(err)
	}
	if st.sb == nil {
		return
	}
	r.queueDropped = st.sb.QueueDrops()
	if r.queueDropped != 0 {
		r.fail(fmt.Errorf("SB dispatch queues dropped %d messages", r.queueDropped))
	}
	if eng := st.sb.Stream(); eng != nil {
		s := eng.Stats()
		r.streamScores, r.streamSkipped = s.Scores, s.Skipped
		if emitted := uint64(st.verdicts.Load() + st.statFeatures.Load()); s.Scores+s.Skipped != emitted {
			r.fail(fmt.Errorf("stream scored %d and skipped %d of %d emitted features", s.Scores, s.Skipped, emitted))
		}
	}
}
