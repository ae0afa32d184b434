package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/athena-sdn/athena/internal/openflow"
)

const (
	hostsPerSwitch = 64
	switchPorts    = 16
	// maxStatsEntries caps one flow-stats reply: at 90 encoded bytes an
	// entry, 200 entries (18 KB) stay well inside openflow.MaxFrameLen.
	maxStatsEntries = 200
)

// clock is the benchmark's monotonic time base; every recorded time is
// nanoseconds since it.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// plan derives every PacketIn the benchmark offers from the seed, so
// the checkers can recompute what each answer must look like without
// asking the program.
type plan struct{ seed uint64 }

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// hosts returns the source and destination host of PacketIn seq on
// switch sw. The first hostsPerSwitch PacketIns are the warm-up: host
// i talks to itself, so the controller learns every host and answers
// each warm-up PacketIn with a FlowMod.
func (p plan) hosts(sw int, seq uint32) (src, dst int) {
	if seq <= hostsPerSwitch {
		return int(seq - 1), int(seq - 1)
	}
	h := splitmix(p.seed ^ uint64(sw)<<40 ^ uint64(seq))
	src = int(h % hostsPerSwitch)
	dst = (src + 1 + int(h>>32)%(hostsPerSwitch-1)) % hostsPerSwitch
	return src, dst
}

func hostIP(sw, host int) uint32 { return 0x0A000000 | uint32(sw+1)<<8 | uint32(host+1) }
func hostPort(host int) uint32   { return uint32(host%switchPorts) + 1 }

// fields builds PacketIn seq's header fields. The sequence number rides
// in the transport ports, so every PacketIn is a distinct flow and the
// FlowMod (an exact match on these fields) names the PacketIn it
// answers.
func (p plan) fields(sw int, seq uint32) openflow.Fields {
	src, dst := p.hosts(sw, seq)
	return openflow.Fields{
		InPort:  hostPort(src),
		EthType: openflow.EthTypeIPv4,
		IPProto: openflow.ProtoTCP,
		IPSrc:   hostIP(sw, src),
		IPDst:   hostIP(sw, dst),
		TPSrc:   uint16(seq),
		TPDst:   uint16(seq>>16) + 1,
	}
}

func seqOf(f openflow.Fields) uint32 { return uint32(f.TPDst-1)<<16 | uint32(f.TPSrc) }

// pin is one offered PacketIn and the times its answers arrived
// (benchmark clock; 0 = not yet). The t* stamps are set only by the
// traced run's taps.
type pin struct {
	due, sent, flowMod, verdict atomic.Int64
	flowMods, verdicts          atomic.Int32

	tProc, tLis, tSB0, tSB1, tIns0, tIns1, tNB0 atomic.Int64
	inserts                                     atomic.Int32
}

// statEntry is one flow-stats entry an emulated switch reported.
type statEntry struct {
	seq                uint32
	packets, bytes     uint64
	durSec, durNanoSec uint32
}

// flowStatsLog answers flow-stats polls with the flows installed since
// the previous poll and remembers, in order, what it reported.
type flowStatsLog struct {
	mu        sync.Mutex
	installed []installedFlow
	expect    []statEntry
	head      int
	polls     int
	frozen    bool
	replies   []*openflow.MultipartReply // kept for the generator feed
	keep      int
}

type installedFlow struct {
	seq    uint32
	at     time.Time
	cookie uint64
}

// emuSwitch is one emulated OpenFlow switch: a control connection, a
// reader goroutine that answers the controller, and the registry of
// PacketIns it offered. Its sender runs on the caller's load goroutine.
type emuSwitch struct {
	idx  int
	dpid uint64
	plan plan
	nc   net.Conn
	conn *openflow.Conn

	pins []pin
	next uint32 // last seq sent; sender goroutine only

	window chan struct{} // one token per unanswered PacketIn in a closed loop; nil in open loop
	stats  *flowStatsLog // nil when polls are not answered with flows

	flowMods atomic.Int64
	bad      firstErr
	readDone chan struct{}
}

// firstErr keeps the first wrong answer any goroutine reports.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (e *firstErr) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *firstErr) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

func dialSwitch(addr string, idx int, p plan, capacity int, stats *flowStatsLog) (*emuSwitch, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("switch %d: dial: %w", idx, err)
	}
	s := &emuSwitch{
		idx:      idx,
		dpid:     uint64(idx + 1),
		plan:     p,
		nc:       nc,
		conn:     openflow.NewConn(nc),
		pins:     make([]pin, capacity),
		stats:    stats,
		readDone: make(chan struct{}),
	}
	if _, err := s.conn.Send(&openflow.Hello{}); err != nil {
		s.conn.Close()
		return nil, fmt.Errorf("switch %d: hello: %w", idx, err)
	}
	go s.readLoop()
	return s, nil
}

func (s *emuSwitch) close() {
	s.conn.Close()
	<-s.readDone
}

func (s *emuSwitch) readLoop() {
	defer close(s.readDone)
	ports := make([]openflow.PortDesc, switchPorts)
	for i := range ports {
		ports[i] = openflow.PortDesc{No: uint32(i + 1), Name: fmt.Sprintf("p%d", i+1)}
	}
	var batch openflow.MessageBatch
	defer batch.Release()
	// Replies other than flow stats are not checked: a failed send
	// means the connection is closing, and ReceiveBatch then ends the
	// loop.
	for {
		if err := s.conn.ReceiveBatch(&batch); err != nil {
			return
		}
		t := now()
		for i := 0; i < batch.Len(); i++ {
			msg, h := batch.At(i)
			switch m := msg.(type) {
			case *openflow.FeaturesRequest:
				_ = s.conn.SendXID(&openflow.FeaturesReply{DPID: s.dpid, NumTables: 1, Ports: ports}, h.XID)
			case *openflow.EchoRequest:
				_ = s.conn.SendXID(&openflow.EchoReply{Data: m.Data}, h.XID)
			case *openflow.FlowMod:
				s.onFlowMod(m, t)
			case *openflow.MultipartRequest:
				s.onStatsRequest(m, h.XID)
			}
		}
		batch.Release()
	}
}

// onFlowMod matches a FlowMod to the PacketIn it answers.
func (s *emuSwitch) onFlowMod(m *openflow.FlowMod, t int64) {
	seq := seqOf(m.Match.Fields)
	if err := checkFlowMod(s.plan, s.idx, uint32(len(s.pins)), m); err != nil {
		s.bad.set(err)
		return
	}
	p := &s.pins[seq-1]
	if p.sent.Load() == 0 {
		s.bad.set(fmt.Errorf("switch %d: FlowMod for PacketIn %d, which was never sent", s.idx, seq))
		return
	}
	if p.flowMods.Add(1) != 1 {
		s.bad.set(fmt.Errorf("switch %d: second FlowMod for PacketIn %d", s.idx, seq))
		return
	}
	p.flowMod.Store(t)
	s.flowMods.Add(1)
	if s.window != nil {
		select { // frees one slot of the closed-loop window
		case <-s.window:
		default: // a warm-up answer, sent outside the window
		}
	}
	if s.stats != nil {
		s.stats.mu.Lock()
		if !s.stats.frozen {
			s.stats.installed = append(s.stats.installed, installedFlow{seq: seq, at: time.Now(), cookie: m.Cookie})
		}
		s.stats.mu.Unlock()
	}
}

// checkFlowMod verifies a FlowMod against the PacketIn its match names:
// the exact header fields the switch sent, one output action, and the
// port where the benchmark placed the destination host.
func checkFlowMod(p plan, sw int, capacity uint32, m *openflow.FlowMod) error {
	seq := seqOf(m.Match.Fields)
	if seq == 0 || seq > capacity {
		return fmt.Errorf("switch %d: FlowMod matches no offered PacketIn (seq %d)", sw, seq)
	}
	want := p.fields(sw, seq)
	if m.Match.Wildcards != 0 || m.Match.Fields != want {
		return fmt.Errorf("switch %d: FlowMod match %+v, want exact %+v", sw, m.Match, want)
	}
	_, dst := p.hosts(sw, seq)
	if len(m.Actions) != 1 {
		return fmt.Errorf("switch %d: FlowMod for PacketIn %d has %d actions, want 1", sw, seq, len(m.Actions))
	}
	out, ok := m.Actions[0].(openflow.ActionOutput)
	if !ok || out.Port != hostPort(dst) {
		return fmt.Errorf("switch %d: FlowMod for PacketIn %d acts %v, want output to port %d",
			sw, seq, m.Actions[0], hostPort(dst))
	}
	return nil
}

// onStatsRequest answers a flow-stats poll with the flows installed
// since the last one (the latest maxStatsEntries), with counters drawn
// from the plan; port-stats polls get an empty reply.
func (s *emuSwitch) onStatsRequest(m *openflow.MultipartRequest, xid uint32) {
	reply := &openflow.MultipartReply{StatsType: m.StatsType}
	if m.StatsType == openflow.StatsFlow && s.stats != nil {
		st := s.stats
		st.mu.Lock()
		inst := st.installed
		if len(inst) > maxStatsEntries {
			inst = inst[len(inst)-maxStatsEntries:]
		}
		st.installed = st.installed[:0]
		nowT := time.Now()
		for _, fl := range inst {
			f := s.plan.fields(s.idx, fl.seq)
			_, dst := s.plan.hosts(s.idx, fl.seq)
			h := splitmix(s.plan.seed ^ uint64(fl.seq)<<20 ^ uint64(st.polls))
			e := statEntry{seq: fl.seq, packets: 1 + h%5000}
			e.bytes = e.packets * (64 + h>>40%1400)
			d := nowT.Sub(fl.at)
			e.durSec, e.durNanoSec = uint32(d/time.Second), uint32(d%time.Second)
			reply.Flows = append(reply.Flows, openflow.FlowStats{
				Priority:     100,
				DurationSec:  e.durSec,
				DurationNSec: e.durNanoSec,
				Cookie:       fl.cookie,
				PacketCount:  e.packets,
				ByteCount:    e.bytes,
				Match:        openflow.ExactMatch(f),
				Actions:      []openflow.Action{openflow.Output(hostPort(dst))},
			})
			st.expect = append(st.expect, e)
		}
		st.polls++
		if len(st.replies) < st.keep && len(reply.Flows) > 0 {
			st.replies = append(st.replies, reply)
		}
		// Sending under the lock keeps the expectation queue in the
		// order the controller receives the replies.
		err := s.conn.SendXID(reply, xid)
		st.mu.Unlock()
		if err != nil && !errors.Is(err, net.ErrClosed) {
			s.bad.set(fmt.Errorf("switch %d: flow-stats reply of %d entries: %w", s.idx, len(reply.Flows), err))
		}
		return
	}
	_ = s.conn.SendXID(reply, xid)
}

// popStat returns the oldest reported entry not yet matched to a
// feature.
func (st *flowStatsLog) popStat() (statEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.head >= len(st.expect) {
		return statEntry{}, false
	}
	e := st.expect[st.head]
	st.head++
	return e, true
}

// reported is the number of entries sent so far.
func (st *flowStatsLog) reported() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.expect)
}

// freeze stops reporting new flows, so the expected total is final.
func (st *flowStatsLog) freeze() {
	st.mu.Lock()
	st.frozen = true
	st.installed = nil
	st.mu.Unlock()
}

// send offers PacketIns seq next+1 .. next+n in one write, stamping
// their due times (due(i), or the send time in a closed loop) and the
// send time.
func (s *emuSwitch) send(n int, due func(i int) int64, frames []byte) ([]byte, error) {
	frames = frames[:0]
	first := s.next + 1
	for i := 0; i < n; i++ {
		s.next++
		pi := openflow.PacketIn{
			Reason:   openflow.ReasonNoMatch,
			TotalLen: 128,
			Fields:   s.plan.fields(s.idx, s.next),
		}
		var err error
		if frames, err = openflow.AppendMessage(frames, &pi, s.next); err != nil {
			return frames, err
		}
	}
	t := now()
	for i := 0; i < n; i++ {
		p := &s.pins[first-1+uint32(i)]
		d := t
		if due != nil {
			d = due(i)
		}
		p.due.Store(d)
		p.sent.Store(t)
	}
	return frames, s.conn.SendBatch(frames)
}
