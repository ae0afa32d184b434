package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/athena-sdn/athena/internal/compute"
	"github.com/athena-sdn/athena/internal/controller"
	"github.com/athena-sdn/athena/internal/core"
	"github.com/athena-sdn/athena/internal/ml"
	"github.com/athena-sdn/athena/internal/query"
	"github.com/athena-sdn/athena/internal/store"
)

const (
	computeWorkers = 2
	numDPIDs       = 16
	ingestBatch    = 1000
	// Corpus: flows per class; each flow yields about four records. A
	// round takes about 0.7 s, so a probe of 8 s still has about ten.
	trainBenign, trainMalicious = 1000, 3000
	testBenign, testMalicious   = 500, 1500
)

// tvConfig selects one train-validate phase.
type tvConfig struct {
	trace     bool
	seed      int64
	minRounds int
	dur       time.Duration
}

// tvStack is one booted detector path: a store node, two compute
// workers and an Athena instance over an idle controller.
type tvStack struct {
	node    *store.Node
	workers []*compute.Worker
	ctrl    *controller.Controller
	ath     *core.Athena
	drv     *compute.Driver // traced run: the benchmark's own driver

	train, test []*core.Feature
	docs        []store.Document
	perDPID     [numDPIDs + 1]int // test records per datapath
	selective   []*query.Query
}

type tvResult struct {
	setup                                     []float64
	ingest, query, train, validate            []float64 // docs/s, ms, s, rows/s
	attempted, failed                         int64
	errs                                      []error
	layers                                    map[string]float64
	batchMs, selMs, bulkMs, decodeMs, dsMs    []float64
	loadMs, shipBytes, ctrainMs, cvalMs, kmMs []float64
}

func (r *tvResult) fail(err error) { r.errs = append(r.errs, err) }

func bootTV(cfg tvConfig) (st *tvStack, err error) {
	st = &tvStack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.node, err = store.NewNode(""); err != nil {
		return nil, err
	}
	var addrs []string
	for range computeWorkers {
		w, err := compute.NewWorker("")
		if err != nil {
			return nil, err
		}
		st.workers = append(st.workers, w)
		addrs = append(addrs, w.Addr())
	}
	if st.ctrl, err = controller.New(controller.Config{ID: "bench-tv"}); err != nil {
		return nil, err
	}
	if st.ath, err = core.New(core.Config{
		Proxy: st.ctrl, StoreAddrs: []string{st.node.Addr()}, ComputeAddrs: addrs,
		DistributedThreshold: 1, Southbound: core.SouthboundConfig{Publish: core.PublishOff},
	}); err != nil {
		return nil, err
	}
	if cfg.trace {
		// The layer feed gets workers of its own: Athena's workers have
		// just cached the round's dataset, and a cached load ships
		// almost nothing.
		var own []string
		for range computeWorkers {
			w, err := compute.NewWorker("")
			if err != nil {
				return nil, err
			}
			st.workers = append(st.workers, w)
			own = append(own, w.Addr())
		}
		if st.drv, err = compute.NewDriver(own); err != nil {
			return nil, err
		}
	}
	for d := 1; d <= numDPIDs; d++ {
		st.selective = append(st.selective, core.MustQuery(fmt.Sprintf(`app=="test" && dpid==%d`, d)))
	}
	return st, nil
}

// newCorpus generates the round's labelled DDoS records, spread over
// numDPIDs datapaths and tagged train or test. Every round gets records
// of its own, so no round is served from a compute worker's dataset
// cache.
func (st *tvStack) newCorpus(seed int64) {
	dpids := make([]uint64, numDPIDs)
	for i := range dpids {
		dpids[i] = uint64(i + 1)
	}
	st.train = core.GenerateDDoSFeatures(core.SynthDDoSConfig{
		BenignFlows: trainBenign, MaliciousFlows: trainMalicious, Seed: 2 * seed, Switches: dpids})
	st.test = core.GenerateDDoSFeatures(core.SynthDDoSConfig{
		BenignFlows: testBenign, MaliciousFlows: testMalicious, Seed: 2*seed + 1, Switches: dpids})
	st.docs = st.docs[:0]
	st.perDPID = [numDPIDs + 1]int{}
	for _, f := range st.train {
		f.AppID = "train"
		st.docs = append(st.docs, f.Document())
	}
	for _, f := range st.test {
		f.AppID = "test"
		st.docs = append(st.docs, f.Document())
		st.perDPID[f.DPID]++
	}
}

func (st *tvStack) close() {
	if st.drv != nil {
		st.drv.Close()
	}
	if st.ath != nil {
		st.ath.Close()
	}
	if st.ctrl != nil {
		st.ctrl.Stop()
	}
	for _, w := range st.workers {
		w.Close()
	}
	if st.node != nil {
		st.node.Close()
	}
}

var (
	qTrain = core.MustQuery(`app=="train"`)
	qTest  = core.MustQuery(`app=="test"`)
)

func detectorSetup(seed int64) (*core.Preprocessor, core.Algorithm) {
	p := &core.Preprocessor{
		Normalize:  ml.NormMinMax,
		LabelField: core.LabelField,
		Weights:    map[string]float64{core.FPairFlow: 2, core.FPairFlowRatio: 2},
	}
	p.AddFeatures(core.DDoSFeatureNames...)
	return p, core.GenerateAlgorithm(ml.AlgoKMeans, ml.Params{K: 8, Iterations: 20, Runs: 2, Seed: seed, Epsilon: 1e-4})
}

// runTV boots the detector path `boots` times (the last boot is
// measured) and, after one warm round, repeats whole rounds until dur
// has passed and at least minRounds ran.
func runTV(cfg tvConfig, boots int) (*tvResult, error) {
	res := &tvResult{}
	var st *tvStack
	for b := 0; b < boots; b++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = bootTV(cfg); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	defer st.close()
	var start time.Time
	for k := 0; k <= cfg.minRounds || time.Since(start) < cfg.dur; k++ {
		st.newCorpus(cfg.seed<<16 + int64(k))
		runtime.GC() // every round starts from a collected heap
		if err := res.round(st, cfg); err != nil {
			return nil, err
		}
		if k == 0 {
			// Round 0 warms the heap, the store and the workers up: it
			// is checked and counted, but its timings are dropped.
			*res = tvResult{setup: res.setup, attempted: res.attempted, failed: res.failed, errs: res.errs}
			start = time.Now()
		}
	}
	if cfg.trace {
		res.layers = map[string]float64{
			"store.insert_batch_ms_p50":    median(res.batchMs),
			"store.query_selective_ms_p50": median(res.selMs),
			"store.query_bulk_ms":          median(res.bulkMs),
			"core.decode_ms":               median(res.decodeMs),
			"core.dataset_ms":              median(res.dsMs),
			"compute.load_ms":              median(res.loadMs),
			"compute.ship_bytes":           median(res.shipBytes),
			"compute.train_ms":             median(res.ctrainMs),
			"compute.validate_ms":          median(res.cvalMs),
			"ml.kmeans_local_ms":           median(res.kmMs),
		}
	}
	return res, nil
}

// round is one ingest → selective queries → train → validate cycle,
// with its checks; the store is emptied afterwards.
func (r *tvResult) round(st *tvStack, cfg tvConfig) error {
	cl := st.ath.Store()
	nTrain, nTest := len(st.train), len(st.test)
	r.attempted += int64(len(st.docs) + len(st.selective) + nTest)

	// One ingest sample per acknowledged batch: a GC cycle or a stolen
	// time slice then moves one sample of ~50 instead of the round's.
	for i := 0; i < len(st.docs); i += ingestBatch {
		batch := st.docs[i:min(i+ingestBatch, len(st.docs))]
		b0 := time.Now()
		if err := cl.Insert(batch); err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		d := time.Since(b0)
		r.ingest = append(r.ingest, float64(len(batch))/d.Seconds())
		if cfg.trace {
			r.batchMs = append(r.batchMs, float64(d.Nanoseconds())/1e6)
		}
	}
	for _, c := range []struct {
		app  string
		want int
	}{{"train", nTrain}, {"test", nTest}} {
		n, err := cl.Count(store.Filter{Tags: []store.TagCond{{Tag: "app", Equals: true, Value: c.app}}})
		if err != nil {
			return fmt.Errorf("count %s: %w", c.app, err)
		}
		if err := checkCount("stored "+c.app+" documents", n, c.want); err != nil {
			r.fail(err)
			r.failed += int64(max(0, c.want-n))
		}
	}

	for d, q := range st.selective {
		q0 := time.Now()
		fs, err := st.ath.RequestFeatures(q)
		if err != nil {
			return fmt.Errorf("selective query: %w", err)
		}
		r.query = append(r.query, msSince(q0))
		if err := checkCount(fmt.Sprintf("test records of dpid %d", d+1), len(fs), st.perDPID[d+1]); err != nil {
			r.fail(err)
			r.failed++
		}
	}

	p, algo := detectorSetup(cfg.seed)
	t1 := time.Now()
	model, err := st.ath.GenerateDetectionModel(qTrain, p, algo)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	r.train = append(r.train, time.Since(t1).Seconds())
	if err := checkCount("training rows", model.TrainRows, nTrain); err != nil {
		r.fail(err)
	}
	if !model.Distributed {
		r.fail(fmt.Errorf("training ran locally, not on the %d compute workers", computeWorkers))
	}

	t2 := time.Now()
	vr, err := st.ath.ValidateFeatures(qTest, p, model)
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	r.validate = append(r.validate, float64(vr.Rows)/time.Since(t2).Seconds())
	if err := checkCount("validated rows", vr.Rows, nTest); err != nil {
		r.fail(err)
		r.failed += int64(max(0, nTest-vr.Rows))
	}
	if err := checkConfusion(vr.Confusion, tally(model, st.test)); err != nil {
		r.fail(err)
	}

	if cfg.trace {
		if err := r.traceRound(st, cfg, p, algo); err != nil {
			return err
		}
	}
	n, err := cl.Delete(store.Filter{})
	if err != nil {
		return fmt.Errorf("empty store: %w", err)
	}
	return checkCount("deleted documents", n, len(st.docs))
}

// traceRound times the detector path's layers by calling each alone on
// the round's data.
func (r *tvResult) traceRound(st *tvStack, cfg tvConfig, p *core.Preprocessor, algo core.Algorithm) error {
	cl := st.ath.Store()
	for _, q := range st.selective {
		sq, _ := q.ToStore(core.TagFields)
		t := time.Now()
		if _, err := cl.Query(sq); err != nil {
			return err
		}
		r.selMs = append(r.selMs, msSince(t))
	}
	sq, _ := qTrain.ToStore(core.TagFields)
	t := time.Now()
	docs, err := cl.Query(sq)
	if err != nil {
		return err
	}
	r.bulkMs = append(r.bulkMs, msSince(t))
	t = time.Now()
	feats := make([]*core.Feature, len(docs))
	for i, d := range docs {
		feats[i] = core.FeatureFromDocument(d)
	}
	r.decodeMs = append(r.decodeMs, msSince(t))
	t = time.Now()
	ds, err := p.BuildDataset(feats)
	if err != nil {
		return err
	}
	r.dsMs = append(r.dsMs, msSince(t))

	// The same preparation GenerateDetectionModel applies: min-max
	// normalisation, then the emphasis weights.
	norm := &ml.Normalization{Kind: ml.NormMinMax}
	if ds, err = norm.Apply(ds); err != nil {
		return err
	}
	w := ml.Weighting{Factors: map[int]float64{}}
	for i, name := range p.Features {
		if f, ok := p.Weights[name]; ok {
			w.Factors[i] = f
		}
	}
	if ds, err = w.Apply(ds); err != nil {
		return err
	}
	before := st.drv.TransportStats().BytesShipped
	t = time.Now()
	if err := st.drv.LoadDataset("bench-train", ds); err != nil {
		return err
	}
	r.loadMs = append(r.loadMs, msSince(t))
	r.shipBytes = append(r.shipBytes, float64(st.drv.TransportStats().BytesShipped-before))
	t = time.Now()
	model, err := st.drv.Train("bench-train", algo.Name, algo.Params)
	if err != nil {
		return err
	}
	r.ctrainMs = append(r.ctrainMs, msSince(t))
	t = time.Now()
	if _, _, err := st.drv.Validate("bench-train", model); err != nil {
		return err
	}
	r.cvalMs = append(r.cvalMs, msSince(t))
	if err := st.drv.DropDataset("bench-train"); err != nil {
		return err
	}
	local := algo.Params
	local.Parallelism = 1
	t = time.Now()
	if _, err := ml.Train(algo.Name, ds, local); err != nil {
		return err
	}
	r.kmMs = append(r.kmMs, msSince(t))
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
