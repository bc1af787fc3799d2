package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"ecochip/internal/tech"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if supports(99, 90) || !supports(100, 90) {
		t.Error("supports(n, 90) must need ten samples beyond the p90")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestBandAveragesAroundThePercentile(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	// Ranks 85..95 of 1..100.
	if got := s.band(90); got != 90 {
		t.Errorf("band(90) = %v, want 90", got)
	}
	// Ranks 45..55, and the band clips at the ends.
	if got := s.band(50); got != 50 {
		t.Errorf("band(50) = %v, want 50", got)
	}
	if got := s.band(99); got != 97 {
		t.Errorf("band(99) = %v, want 97 (ranks 94..100)", got)
	}
	// A sample of the band moving far out shifts the band by one rank,
	// not to the outlier.
	var o sample
	for i := 1; i <= 100; i++ {
		o.add(float64(i))
	}
	o.vs[89] = 1000
	if got := o.band(90); math.Abs(got-(990-90+96)/11.0) > 1e-9 {
		t.Errorf("band(90) with an outlier = %v", got)
	}
	var empty sample
	if !math.IsNaN(empty.band(50)) {
		t.Error("band of no samples must be NaN")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 14},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 40 - 10, 2: 20 - 2, 3: 30, 4: 30, 5: 2} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", 0, 1); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr.end(0)
	if tr.snapshot() != nil {
		t.Fatal("nil tracer kept spans")
	}
	tr = newTracer()
	p := tr.begin("parent", 0, 7)
	c := tr.begin("child", p, 7)
	tr.end(c)
	open := tr.begin("open", p, 7)
	_ = open
	tr.end(p)
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != p || got[1].Job != 7 {
		t.Fatalf("snapshot = %+v, want the two closed spans", got)
	}
}

func TestBacklogGrowthRule(t *testing.T) {
	flat := []int{0, 1, 2, 1, 0, 1, 2, 1}
	if backlogGrowing(flat, 2) {
		t.Error("a steady backlog counted as growing")
	}
	rising := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if !backlogGrowing(rising, 2) {
		t.Error("a rising backlog not counted as growing")
	}
	if backlogGrowing([]int{5, 9}, 0) {
		t.Error("too few dispatches to judge must not count as growing")
	}
}

func TestLadderSearch(t *testing.T) {
	rates := ladder(ladderLo, ladderHi, ladderStep)
	if rates[0] != ladderLo || rates[len(rates)-1] > ladderHi {
		t.Fatalf("ladder spans %v..%v", rates[0], rates[len(rates)-1])
	}
	for i := 1; i < len(rates); i++ {
		if r := rates[i] / rates[i-1]; r > ladderStep*1.01 {
			t.Fatalf("step %d is %.3f× the previous: too coarse for goodput_rps's bound", i, r)
		}
	}
	if i := highestStep(rates, 1000); rates[i] > 1000 || (i+1 < len(rates) && rates[i+1] <= 1000) {
		t.Fatalf("highestStep(1000) = step %d (%v)", i, rates[i])
	}
	if highestStep(rates, ladderLo-1) != -1 {
		t.Fatal("a capacity below the ladder must leave no step")
	}
	for _, c := range []struct{ start, passFrom, want, probes int }{
		{10, 10, 10, 1}, // the highest step not above capacity passes
		{10, 8, 8, 3},   // two noisy steps: walk down
		{10, 7, -1, 3},  // three failures: give up
		{1, 5, 1, 1},
		{-1, 0, -1, 0}, // capacity below the ladder
	} {
		probes := 0
		got := searchLadder(c.start, 3, func(i int) bool { probes++; return i <= c.passFrom })
		if got != c.want || probes != c.probes {
			t.Errorf("start %d, passing from %d: step %d after %d probes, want %d after %d", c.start, c.passFrom, got, probes, c.want, c.probes)
		}
	}
}

func TestStepVerdict(t *testing.T) {
	step := func(fail int, lat ...float64) *phaseResult {
		p := &phaseResult{sent: len(lat), fail: fail, ok: len(lat) - fail}
		for _, v := range lat {
			p.lat.add(v)
		}
		return p
	}
	fast := make([]float64, 2000)
	for i := range fast {
		fast[i] = 1
	}
	if ok, why := stepVerdict(step(0, fast...), 50, 2); !ok {
		t.Errorf("fast step failed: %s", why)
	}
	if ok, _ := stepVerdict(step(1, fast...), 50, 2); ok {
		t.Error("a step with a failed call passed")
	}
	slow := append([]float64(nil), fast...)
	for i := 0; i < 30; i++ { // 1.5% of calls over the limit: the p99 is
		slow[i] = 80
	}
	if ok, _ := stepVerdict(step(0, slow...), 50, 2); ok {
		t.Error("a step whose p99 is over the limit passed")
	}
	// 200 calls cannot support a p99: the verdict falls back to the p90.
	few := make([]float64, 200)
	for i := range few {
		few[i] = 1
	}
	few[0], few[1], few[2] = 80, 80, 80
	if ok, why := stepVerdict(step(0, few...), 50, 2); !ok {
		t.Errorf("three slow calls of 200 are beyond the p90: %s", why)
	}
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	db := tech.Default()
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := dseDesigns(5, db), dseDesigns(5, db), dseDesigns(6, db)
	if !bytes.Equal(enc(a), enc(b)) {
		t.Fatal("same seed, different DSE designs")
	}
	if bytes.Equal(enc(a), enc(c)) {
		t.Fatal("different seeds, same DSE designs")
	}
	bodies := func(seed int64) [][]byte {
		rng := rand.New(rand.NewSource(seed))
		reqs, err := genRequests(rng, poolDesigns(rng, db, 16))
		if err != nil {
			t.Fatal(err)
		}
		env := &serveEnv{seed: seed, pool: make([]*Design, 16), reqs: reqs}
		var out [][]byte
		for _, cl := range env.newStream(0).calls(500, 1e9) {
			out = append(out, cl.req.body, enc(cl.due))
		}
		return out
	}
	x, y := bodies(9), bodies(9)
	if len(x) == 0 || len(x) != len(y) {
		t.Fatalf("call streams of %d and %d", len(x), len(y))
	}
	for i := range x {
		if !bytes.Equal(x[i], y[i]) {
			t.Fatalf("same seed, call %d differs", i/2)
		}
	}
}

func TestDesignBounds(t *testing.T) {
	db := tech.Default()
	grid := sweepGrid(dseMinPoints, dseMaxPoints)
	if len(grid) == 0 {
		t.Fatal("empty sweep grid")
	}
	for _, d := range dseDesigns(1, db) {
		nc, r := len(d.Sys.Chiplets), len(d.Nodes)
		if p := d.Points(); p < dseMinPoints || p > dseMaxPoints || nc < minChiplets || nc > maxChiplets || r < minRadix || r > maxRadix {
			t.Errorf("%s: %d chiplets × %d nodes = %d points outside the DSE bounds", d.Sys.Name, nc, r, p)
		}
	}
	sh := designShares(dseDesigns(1, db))
	for arch, share := range sh["arch"].(map[string]float64) {
		if share != 0.2 {
			t.Errorf("architecture %s has share %v, want 0.2", arch, share)
		}
	}
	for _, d := range poolDesigns(rand.New(rand.NewSource(1)), db, 64) {
		for _, c := range d.Sys.Chiplets {
			found := false
			for _, n := range d.Nodes {
				found = found || n == c.NodeNm
			}
			if !found {
				t.Fatalf("%s: chiplet %s on node %d outside its candidate list %v", d.Sys.Name, c.Name, c.NodeNm, d.Nodes)
			}
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i])
		}
	}
}

func TestLayerValuesCoverEveryMetric(t *testing.T) {
	dse := func() *segment {
		s := newSegment()
		s.dse = &dseTotals{}
		return s
	}
	srv := newSegment()
	srv.srv = &serveTotals{low: &phaseResult{}, high: &phaseResult{}}
	v := layerValues(dse(), dse(), srv, srv, 1)
	for _, m := range perLayer {
		if _, ok := v[m.name]; !ok {
			t.Errorf("per-layer metric %s is not computed", m.name)
		}
		if m.moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", m.name)
		}
	}
	if len(v) != len(perLayer) {
		t.Errorf("layerValues computes %d metrics, perLayer lists %d", len(v), len(perLayer))
	}
}

// TestLoadGeneratorAgainstHandler drives the open and the closed loop
// against an echo handler from several client goroutines (run it with
// -race): every call is answered, latency counts from the due time and
// covers the service time, sampled answers are kept and each traced call
// leaves one span.
func TestLoadGeneratorAgainstHandler(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.Write(b)
	}))
	defer srv.Close()
	clients := newClients(3, srv.URL)
	defer closeClients(clients)
	req := &request{path: "/echo", body: []byte(`{"x":1}`)}
	var calls []*call
	for i := 0; i < 60; i++ {
		calls = append(calls, &call{id: int64(i + 1), req: req, due: time.Duration(i) * time.Millisecond, sampled: i%2 == 0})
	}
	tr := newTracer()
	p, outs := openLoop(context.Background(), clients, calls, 1000, 60*time.Millisecond, tr)
	if p.sent != 60 || p.ok != 60 || p.fail != 0 {
		t.Fatalf("sent %d ok %d failed %d", p.sent, p.ok, p.fail)
	}
	for i, c := range calls {
		if outs[i].svc <= 0 || outs[i].lat < outs[i].svc || outs[i].bytes != len(req.body) {
			t.Fatalf("call %d: latency %v, service time %v, %d bytes", i, outs[i].lat, outs[i].svc, outs[i].bytes)
		}
		if c.sampled != (c.resp != nil) {
			t.Fatalf("call %d: sampled %v but kept %q", i, c.sampled, c.resp)
		}
	}
	if n := spanSample(tr.snapshot(), nil, "http.client", time.Microsecond).n(); n != 60 {
		t.Fatalf("%d client spans for 60 calls", n)
	}
	if p.elapsed < 59*time.Millisecond {
		t.Fatalf("the phase took %v, its last call is due at 59ms", p.elapsed)
	}
	// All due at once: a closed loop over the clients.
	burst := []*call{{id: 1, req: req}, {id: 2, req: req}, {id: 3, req: req}, {id: 4, req: req}}
	q, _ := openLoop(context.Background(), clients, burst, 0, 0, nil)
	if q.ok != len(burst) || q.elapsed <= 0 || q.svc.n() != len(burst) {
		t.Fatalf("closed loop answered %d of %d calls in %v (%d service times)", q.ok, len(burst), q.elapsed, q.svc.n())
	}
}
