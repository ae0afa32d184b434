// Command athenabench is Athena's end-to-end benchmark. It boots the
// program from its own modules, drives one workload, checks every
// answer against values it computes itself, and prints one JSON result
// line:
//
//	go run . --workload flood-sync --seed 1 --seconds 16 --trace 0
//
// Every run executes the three phases of the paper's evaluation: the
// Table IX flood, the paced detection path and the §V-A detector. The
// workload names the phase that is measured for --seconds (and set up
// fifteen times for setup_s); the other two run as probes of half that
// length so every end-to-end metric is reported by every workload. With --trace 1
// the same run is made with the benchmark's own spans and layer feeds
// and prints the per-layer metrics instead; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. The lists must agree with
// BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"flowinstall_rps", "responses/s"},
	{"flowsetup_p50_ms", "ms"},
	{"verdict_p50_ms", "ms"},
	{"cpu_us_per_event", "us"},
	{"ingest_docs_per_s", "docs/s"},
	{"query_p50_ms", "ms"},
	{"train_s", "s"},
	{"validate_rows_per_s", "rows/s"},
}

// referenceOnly metrics are measured and kept in the run record but
// carry no bound: their run-to-run spread is far wider than any bound
// the benchmark could keep.
var referenceOnly = []metricDef{{"flowsetup_p99_ms", "ms"}, {"verdict_p99_ms", "ms"}}

var perLayer = []metricDef{
	{"openflow.ingress_us_p50", "us"},
	{"openflow.decode_ns_per_frame", "ns"},
	{"openflow.decode_allocs_per_frame", "allocs"},
	{"controller.forwarding_us_p50", "us"},
	{"core.southbound_us_p50", "us"},
	{"core.southbound_self_us_p50", "us"},
	{"core.generator_packetin_ns", "ns"},
	{"core.generator_flowstats_ns_per_entry", "ns"},
	{"core.generator_allocs_per_msg", "allocs"},
	{"store.insert_us_p50", "us"},
	{"store.inserts_per_event", "inserts/event"},
	{"stream.observe_ns", "ns"},
	{"stream.observe_allocs", "allocs"},
	{"stream.scores", "count"},
	{"stream.skipped", "count"},
	{"core.queue_dropped", "count"},
	{"store.docs_stored", "count"},
	{"process.allocs_per_event", "allocs"},
	{"process.gc_pause_ms", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"store.insert_batch_ms_p50", "ms"},
	{"store.query_selective_ms_p50", "ms"},
	{"store.query_bulk_ms", "ms"},
	{"core.decode_ms", "ms"},
	{"core.dataset_ms", "ms"},
	{"compute.load_ms", "ms"},
	{"compute.ship_bytes", "bytes"},
	{"compute.train_ms", "ms"},
	{"compute.validate_ms", "ms"},
	{"ml.kmeans_local_ms", "ms"},
}

const (
	mainBoots = 15 // set-ups of the measured phase; setup_s is their median
	// A probe phase is measured for half the run length, and for at
	// least minProbeRounds rounds: its metrics are held to the same
	// bounds as the measured phase's.
	minProbeRounds = 5
)

var workloads = []string{"flood-sync", "steady-detect", "train-validate"}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "flood-sync, steady-detect or train-validate")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 16, "seconds the workload's own phase is measured")
	trace := flag.Int("trace", 0, "1: record spans and print the per-layer metrics")
	athena := flag.String("athena", "sync", "flood phase only: sync, nodb or off (Table IX reference rows)")
	outDir := flag.String("out", ".bench_build", "directory for the run record and span file")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *athena, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "athenabench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool, athena, outDir string) error {
	valid := false
	for _, w := range workloads {
		valid = valid || w == workload
	}
	if !valid {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	if seconds < 2 {
		return fmt.Errorf("--seconds %d: need at least 2 (one warm round and one measured)", seconds)
	}
	if athena != "sync" && athena != "nodb" && athena != "off" {
		return fmt.Errorf("unknown --athena %q", athena)
	}
	began := time.Now()

	probe := max(minProbeRounds, seconds/2)
	floodCfg := pktConfig{athena: athena, trace: trace, rounds: probe, seed: uint64(seed)}
	steadyCfg := pktConfig{steady: true, athena: "sync", trace: trace, rounds: probe, seed: uint64(seed)}
	tvCfg := tvConfig{trace: trace, seed: seed, minRounds: minProbeRounds, dur: time.Duration(probe) * roundDur}
	floodBoots, steadyBoots, tvBoots := 1, 1, 1
	switch workload {
	case "flood-sync":
		floodCfg.rounds, floodBoots = seconds-1, mainBoots
	case "steady-detect":
		steadyCfg.rounds, steadyBoots = seconds-1, mainBoots
	case "train-validate":
		tvCfg.dur, tvBoots = time.Duration(seconds)*time.Second, mainBoots
	}

	// The measured phase runs first, on a fresh process.
	var flood, steady *pktResult
	var tv *tvResult
	phases := []func() error{
		func() (err error) { flood, err = runPkt(floodCfg, floodBoots); return },
		func() (err error) { steady, err = runPkt(steadyCfg, steadyBoots); return },
		func() (err error) { tv, err = runTV(tvCfg, tvBoots); return },
	}
	order := map[string][]int{"flood-sync": {0, 1, 2}, "steady-detect": {1, 0, 2}, "train-validate": {2, 0, 1}}[workload]
	for _, i := range order {
		if err := phases[i](); err != nil {
			return err
		}
		runtime.GC()
	}

	setup := map[string][]float64{"flood-sync": flood.setup, "steady-detect": steady.setup, "train-validate": tv.setup}[workload]
	rounds := map[string][]float64{
		"setup_s":             setup,
		"flowinstall_rps":     flood.rps,
		"flowsetup_p50_ms":    steady.flowP50,
		"flowsetup_p99_ms":    steady.flowP99,
		"verdict_p50_ms":      steady.verdictP50,
		"verdict_p99_ms":      steady.verdictP99,
		"cpu_us_per_event":    steady.cpuPerEvent,
		"ingest_docs_per_s":   tv.ingest,
		"query_p50_ms":        tv.query,
		"train_s":             tv.train,
		"validate_rows_per_s": tv.validate,
	}

	var errs []error
	for _, e := range [][]error{flood.errs, steady.errs, tv.errs} {
		errs = append(errs, e...)
	}
	res := result{
		Correct:   len(errs) == 0,
		Attempted: flood.attempted + steady.attempted + tv.attempted,
		Failed:    flood.failed + steady.failed + tv.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range endToEnd {
		if len(rounds[m.name]) == 0 {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
	}

	var layers map[string]float64
	if trace {
		// PacketIn-path layers come from the measured phase, or from the
		// steady probe when the detector is measured; the flow-stats,
		// stream and load-generator layers exist only in steady-detect.
		path := flood
		if workload != "flood-sync" {
			path = steady
		}
		layers = map[string]float64{}
		for k, v := range path.layers {
			layers[k] = v
		}
		for _, k := range []string{"core.generator_flowstats_ns_per_entry", "stream.observe_ns",
			"stream.observe_allocs", "stream.scores", "stream.skipped", "loadgen.late_ms_p99"} {
			layers[k] = steady.layers[k]
		}
		for k, v := range tv.layers {
			layers[k] = v
		}
		for _, m := range perLayer {
			v, ok := layers[m.name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = value{v, m.unit}
		}
		spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := writeSpans(spanFile, append(sampleTraces(flood.traces, floodSpanEvery), steady.traces...)); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(os.Stderr, "athenabench: spans written to %s\n", spanFile)
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{median(rounds[m.name]), m.unit}
		}
	}

	rec := record{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Athena: athena,
		Host:      hostInfo(),
		WallS:     time.Since(began).Seconds(),
		Correct:   res.Correct,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]summary{},
		Layers:    layers,
		Counts: map[string]int64{
			"flood.packetins": flood.offered, "steady.packetins": steady.offered,
			"steady.flowstats_entries": steady.statEntries, "steady.docs_stored": steady.docsStored,
			"flood.docs_stored": flood.docsStored,
		},
	}
	for _, m := range slices.Concat(endToEnd, referenceOnly) {
		xs := rounds[m.name]
		if len(xs) == 0 { // a reference tail no round could support
			continue
		}
		q1, med, q3 := quartiles(xs)
		rec.Metrics[m.name] = summary{Unit: m.unit, Median: med, Q1: q1, Q3: q3, N: len(xs)}
	}
	for _, e := range errs {
		rec.Errors = append(rec.Errors, e.Error())
	}
	if err := rec.write(outDir); err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	rec.print()

	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// summary is one metric across a run's repetitions.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// record is the run record written next to the span file.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Athena    string             `json:"athena"`
	Host      host               `json:"host"`
	WallS     float64            `json:"wall_s"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Counts    map[string]int64   `json:"counts"`
	Errors    []string           `json:"errors,omitempty"`
}

func hostInfo() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     readCommit(".git"),
	}
}

// readCommit resolves HEAD from the repository files without running
// git; it returns "" outside a repository.
func readCommit(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

func (r *record) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("record-%s-seed%d-trace%d.json", r.Workload, r.Seed, map[bool]int{false: 0, true: 1}[r.Trace])
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// print writes a readable summary of the record to standard error.
func (r *record) print() {
	w := os.Stderr
	fmt.Fprintf(w, "athenabench: %s seed %d, %d s, trace %v; %d CPUs, GOMAXPROCS %d, %s, commit %s; %.1f s wall\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion,
		orNone(r.Host.Commit), r.WallS)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Metrics[n]
		fmt.Fprintf(w, "  %-22s median %12.4f  q1 %12.4f  q3 %12.4f  %-12s n=%d\n", n, s.Median, s.Q1, s.Q3, s.Unit, s.N)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  check failed:", e)
	}
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
