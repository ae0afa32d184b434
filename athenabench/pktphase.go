package main

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/athena-sdn/athena/internal/controller"
	"github.com/athena-sdn/athena/internal/core"
	"github.com/athena-sdn/athena/internal/ml"
	"github.com/athena-sdn/athena/internal/openflow"
	"github.com/athena-sdn/athena/internal/store"
	"github.com/athena-sdn/athena/internal/stream"
)

const (
	numSwitches = 2
	roundDur    = time.Second
	// floodWindow is each switch's bound on unanswered PacketIns in the
	// closed loop.
	floodWindow = 128
	// steadyRate is the open-loop offered rate over both switches: a
	// tenth of flood-sync's saturation on an idle 2-core host, so the
	// latency stays off the queueing knee even when the host's CPUs are
	// contended.
	steadyRate = 2000.0
	// pollEvery is the controller's flow-stats polling period in
	// steady-detect.
	pollEvery = 100 * time.Millisecond
	sendBatch = 32
	// drainTimeout bounds the wait for answers and stored documents
	// after the load stops; anything missing then counts as failed.
	drainTimeout = 15 * time.Second
)

// pktConfig selects one PacketIn phase.
type pktConfig struct {
	steady bool
	// athena is "sync" (the benchmark), or "nodb" / "off" for the
	// Table IX reference rows.
	athena string
	trace  bool
	rounds int // measured rounds after one warm round
	seed   uint64
}

// pktStack is one booted system under PacketIn load.
type pktStack struct {
	cfg   pktConfig
	plan  plan
	node  *store.Node
	ctrl  *controller.Controller
	ath   *core.Athena     // untraced run
	sb    *core.Southbound // the SB element in either run
	own   *store.Cluster   // sink of the traced run's own SB element
	check *store.Cluster   // the benchmark's own store client
	sw    []*emuSwitch
	stats []*flowStatsLog
	model *core.DetectionModel

	cur     [numSwitches]atomic.Pointer[pin] // PacketIn each session is dispatching (traced)
	stopped bool

	verdicts     atomic.Int64
	statFeatures atomic.Int64
	bad          firstErr

	mu      sync.Mutex
	inserts []int64     // traced: every store.Sink insert, ns
	obs     [][]float64 // traced: stream inputs of emitted features
}

const keepObservations = 20000

// bootPkt builds the system, connects the switches and warms them up.
func bootPkt(cfg pktConfig, capacity int) (st *pktStack, err error) {
	st = &pktStack{cfg: cfg, plan: plan{seed: cfg.seed}}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	ccfg := controller.Config{ID: "bench"}
	if cfg.steady {
		ccfg.StatsInterval = pollEvery
	}
	if st.ctrl, err = controller.New(ccfg); err != nil {
		return nil, err
	}
	var addrs []string
	if cfg.athena == "sync" {
		if st.node, err = store.NewNode(""); err != nil {
			return nil, err
		}
		addrs = []string{st.node.Addr()}
		if st.check, err = store.Connect(addrs); err != nil {
			return nil, err
		}
	}
	if cfg.steady {
		if st.model, err = trainValidatorModel(int64(cfg.seed)); err != nil {
			return nil, err
		}
		for range numSwitches {
			st.stats = append(st.stats, &flowStatsLog{keep: 64})
		}
	}
	if cfg.athena != "off" {
		if err = st.attach(addrs); err != nil {
			return nil, err
		}
	}
	st.ctrl.Start()
	for i := range numSwitches {
		var log *flowStatsLog
		if cfg.steady {
			log = st.stats[i]
		}
		s, err := dialSwitch(st.ctrl.Addr(), i, st.plan, capacity, log)
		if err != nil {
			return nil, err
		}
		if !cfg.steady {
			s.window = make(chan struct{}, floodWindow)
		}
		st.sw = append(st.sw, s)
	}
	if err := waitFor(10*time.Second, func() bool { return len(st.ctrl.Devices()) == numSwitches }); err != nil {
		return nil, fmt.Errorf("switch sessions: %w", err)
	}
	var frames []byte
	for _, s := range st.sw {
		if frames, err = s.send(hostsPerSwitch, nil, frames); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := waitFor(10*time.Second, func() bool {
		return st.flowMods() == int64(numSwitches*hostsPerSwitch)
	}); err != nil {
		return nil, fmt.Errorf("warm-up answers: %w", err)
	}
	return st, nil
}

// attach hosts Athena on the controller. The untraced run uses the
// framework as an application would (core.New and the NB API); the
// traced run assembles the same SB element from core.NewSouthbound so
// the benchmark can wrap the core.Proxy and store.Sink it is handed.
func (st *pktStack) attach(addrs []string) error {
	sbcfg := core.SouthboundConfig{Publish: core.PublishSync, Stream: stream.Config{Enabled: st.cfg.steady}}
	if st.cfg.athena == "nodb" {
		sbcfg.Publish = core.PublishOff
	}
	validate := core.MustQuery(`origin=="packet_in"`)
	flowStats := core.MustQuery(`origin=="flow_stats"`)
	if !st.cfg.trace {
		ath, err := core.New(core.Config{Proxy: st.ctrl, StoreAddrs: addrs, Southbound: sbcfg})
		if err != nil {
			return err
		}
		st.ath, st.sb = ath, ath.Southbound()
		if st.cfg.steady {
			ath.AddOnlineValidator(validate, st.model, st.onVerdict)
			ath.AddEventHandler(flowStats, st.onFlowStats)
		}
		return nil
	}

	st.ctrl.AddProcessor(-1, "bench-tap", func(ctx *controller.PacketContext) {
		if p := st.pinOf(ctx.DPID, ctx.Packet.Fields); p != nil {
			p.tProc.Store(now())
		}
	})
	st.ctrl.AddMessageListener(func(m controller.ControlMessage) {
		i := int(m.DPID) - 1
		if i < 0 || i >= numSwitches {
			return
		}
		var p *pin
		if pi, ok := m.Msg.(*openflow.PacketIn); ok {
			if p = st.pinOf(m.DPID, pi.Fields); p != nil {
				p.tLis.Store(now())
			}
		}
		st.cur[i].Store(p)
	})
	var sink store.Sink
	if len(addrs) > 0 {
		cl, err := store.Connect(addrs)
		if err != nil {
			return err
		}
		st.own = cl
		sink = sinkTap{st: st, inner: cl}
	}
	st.sb = core.NewSouthbound(proxyTap{Controller: st.ctrl, st: st}, sink, sbcfg)
	st.sb.AddFeatureListener(func(f *core.Feature) {
		switch {
		case !st.cfg.steady:
		case validate.Match(f):
			if i := int(f.DPID) - 1; i >= 0 && i < numSwitches {
				if p := st.cur[i].Load(); p != nil {
					p.tNB0.Store(now())
				}
			}
			st.onVerdict(f, st.model.IsAnomalous(f))
		case flowStats.Match(f):
			st.onFlowStats(f)
		}
		if st.cfg.steady {
			st.keepObservation(f)
		}
	})
	return nil
}

// proxyTap is the core.Proxy the traced SB element sees: the
// controller, with the SB handle timed as the core.southbound span.
type proxyTap struct {
	*controller.Controller
	st *pktStack
}

func (p proxyTap) AddMessageListener(fn controller.MessageListener) {
	p.Controller.AddMessageListener(func(m controller.ControlMessage) {
		var pn *pin
		if i := int(m.DPID) - 1; i >= 0 && i < numSwitches {
			pn = p.st.cur[i].Load()
		}
		t0 := now()
		fn(m)
		if pn != nil {
			pn.tSB0.Store(t0)
			pn.tSB1.Store(now())
		}
	})
}

// sinkTap is the store.Sink the traced SB element publishes to.
type sinkTap struct {
	st    *pktStack
	inner store.Sink
}

func (s sinkTap) Insert(docs []store.Document) error {
	t0 := now()
	err := s.inner.Insert(docs)
	t1 := now()
	s.st.mu.Lock()
	s.st.inserts = append(s.st.inserts, t1-t0)
	s.st.mu.Unlock()
	if len(docs) > 0 {
		if dpid, perr := strconv.ParseUint(docs[0].Tags["dpid"], 10, 64); perr == nil && dpid >= 1 && dpid <= numSwitches {
			if p := s.st.cur[dpid-1].Load(); p != nil && p.inserts.Add(1) == 1 {
				p.tIns0.Store(t0)
				p.tIns1.Store(t1)
			}
		}
	}
	return err
}

// pinOf finds the registry entry of an offered PacketIn.
func (st *pktStack) pinOf(dpid uint64, f openflow.Fields) *pin {
	i := int(dpid) - 1
	if i < 0 || i >= len(st.sw) {
		return nil
	}
	seq := seqOf(f)
	if seq == 0 || int(seq) > len(st.sw[i].pins) {
		return nil
	}
	return &st.sw[i].pins[seq-1]
}

// onVerdict receives the online validator's verdict for one PacketIn
// feature.
func (st *pktStack) onVerdict(f *core.Feature, _ bool) {
	t := now()
	i := int(f.DPID) - 1
	if i < 0 || i >= len(st.sw) {
		st.bad.set(fmt.Errorf("verdict for a feature of unknown switch %d", f.DPID))
		return
	}
	s := st.sw[i]
	seq, err := seqOfFlowKey(st.plan, i, uint32(len(s.pins)), f.FlowKey)
	if err != nil {
		st.bad.set(err)
		return
	}
	p := &s.pins[seq-1]
	if p.verdicts.Add(1) != 1 {
		st.bad.set(fmt.Errorf("switch %d: second verdict for PacketIn %d", i, seq))
		return
	}
	p.verdict.Store(t)
	st.verdicts.Add(1)
}

// onFlowStats checks one flow-stats feature against the entry the
// switch reported.
func (st *pktStack) onFlowStats(f *core.Feature) {
	st.statFeatures.Add(1)
	i := int(f.DPID) - 1
	if i < 0 || i >= len(st.stats) {
		st.bad.set(fmt.Errorf("flow-stats feature of unknown switch %d", f.DPID))
		return
	}
	e, ok := st.stats[i].popStat()
	if !ok {
		st.bad.set(fmt.Errorf("switch %d: flow-stats feature %s with no reported entry left", i, f.FlowKey))
		return
	}
	if err := checkStatFeature(st.plan, i, e, f); err != nil {
		st.bad.set(err)
	}
}

func (st *pktStack) keepObservation(f *core.Feature) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.obs) >= keepObservations {
		return
	}
	v := make([]float64, len(stream.DefaultDims))
	for j, name := range stream.DefaultDims {
		v[j] = f.Value(name)
	}
	st.obs = append(st.obs, v)
}

func (st *pktStack) flowMods() int64 {
	var n int64
	for _, s := range st.sw {
		n += s.flowMods.Load()
	}
	return n
}

func (st *pktStack) sent() int64 {
	var n int64
	for _, s := range st.sw {
		n += int64(s.next)
	}
	return n
}

// stopNetwork stops the controller, which waits for its sessions, so
// every inline SB pass has finished; then it closes the switches. The
// order matters: a switch that hangs up on a running controller is
// torn down as dead, and the teardown feeds synthetic FlowRemoved
// events for its flows through the SB element.
func (st *pktStack) stopNetwork() {
	if st.stopped {
		return
	}
	st.stopped = true
	if st.ctrl != nil {
		st.ctrl.Stop()
	}
	for _, s := range st.sw {
		s.close()
	}
}

func (st *pktStack) close() {
	st.stopNetwork()
	if st.ath != nil {
		st.ath.Close()
	}
	if st.sb != nil && st.ath == nil {
		st.sb.Close()
	}
	if st.own != nil {
		st.own.Close()
	}
	if st.check != nil {
		st.check.Close()
	}
	if st.node != nil {
		st.node.Close()
	}
}

// trainValidatorModel trains the online validator's model through the
// NB API on a small seeded DDoS corpus, on an Athena instance of its
// own so no second SB element joins the measured controller.
func trainValidatorModel(seed int64) (*core.DetectionModel, error) {
	a, err := core.New(core.Config{Proxy: idleProxy{}})
	if err != nil {
		return nil, err
	}
	defer a.Close()
	train := core.GenerateDDoSFeatures(core.SynthDDoSConfig{BenignFlows: 300, MaliciousFlows: 600, Seed: seed})
	p := &core.Preprocessor{Normalize: ml.NormMinMax, LabelField: core.LabelField}
	p.AddFeatures(core.DDoSFeatureNames...)
	return a.GenerateDetectionModelFromFeatures(train, p,
		core.GenerateAlgorithm(ml.AlgoKMeans, ml.Params{K: 4, Iterations: 10, Seed: seed}))
}

// idleProxy is a core.Proxy with no switches behind it.
type idleProxy struct{}

func (idleProxy) ID() string                                    { return "bench-model" }
func (idleProxy) AddMessageListener(controller.MessageListener) {}
func (idleProxy) InstallFlow(string, uint64, openflow.FlowMod) (uint64, error) {
	return 0, errors.New("idle proxy")
}
func (idleProxy) SendPacketOut(uint64, *openflow.PacketOut) error { return errors.New("idle proxy") }
func (idleProxy) RemoveFlows(uint64, openflow.Match, uint16, bool) error {
	return errors.New("idle proxy")
}
func (idleProxy) Devices() []uint64                 { return nil }
func (idleProxy) Hosts() []controller.HostInfo      { return nil }
func (idleProxy) Links() []controller.LinkInfo      { return nil }
func (idleProxy) AppOfCookie(uint64) (string, bool) { return "", false }
func (idleProxy) PollStats()                        {}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("not reached within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// memSnap reads the allocation and GC pause counters.
func memSnap() (mallocs uint64, pauseNs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.PauseTotalNs
}
