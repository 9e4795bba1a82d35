package f1

import (
	"sync"
	"testing"

	"cobra/internal/eval"
	"cobra/internal/synth"
)

var (
	sharedLabOnce sync.Once
	sharedLab     *Lab
)

// testLab returns the small-scale lab shared by the package tests. It
// is built once, so each race is simulated and extracted once for the
// whole package: the experiments only read the lab's config and its
// memoised races and features, and none of the tests runs in parallel.
func testLab(t *testing.T) *Lab {
	t.Helper()
	sharedLabOnce.Do(func() {
		cfg := DefaultExpConfig()
		cfg.RaceDur = 220
		cfg.TrainDur = 120
		cfg.TrainSegments = 6
		cfg.EMIterations = 4
		sharedLab = NewLab(cfg)
	})
	return sharedLab
}

func TestExtractShapes(t *testing.T) {
	race := synth.GenerateRace(synth.GermanGP, 60, 7)
	f, err := Extract(race, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if f.N != 600 {
		t.Fatalf("N = %d", f.N)
	}
	for name, s := range map[string][]float64{
		"Keywords": f.Keywords, "PauseRate": f.PauseRate,
		"STEAvg": f.STEAvg, "PitchAvg": f.PitchAvg, "MFCCAvg": f.MFCCAvg,
		"PartOfRace": f.PartOfRace, "Replay": f.Replay, "Semaphore": f.Semaphore,
		"Dust": f.Dust, "Sand": f.Sand, "Motion": f.Motion, "Passing": f.Passing,
	} {
		if len(s) != f.N {
			t.Fatalf("%s length %d", name, len(s))
		}
		for i, v := range s {
			if v < 0 || v > 1 {
				t.Fatalf("%s[%d] = %v out of [0,1]", name, i, v)
			}
		}
	}
	speech := 0
	for _, b := range f.Speech {
		if b {
			speech++
		}
	}
	if speech < f.N/10 || speech > f.N*9/10 {
		t.Fatalf("speech fraction %d/%d implausible", speech, f.N)
	}
}

func TestExtractSkipVideo(t *testing.T) {
	race := synth.GenerateRace(synth.GermanGP, 30, 7)
	f, err := Extract(race, Options{Seed: 7, SkipVideo: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range f.Semaphore {
		if v != 0 {
			t.Fatal("video features should be zero with SkipVideo")
		}
	}
	if len(f.Captions) != 0 {
		t.Fatal("captions with SkipVideo")
	}
}

func TestQuantize3(t *testing.T) {
	q := Quantize3([]float64{0, 0.21, 0.23, 0.54, 0.56, 1})
	want := []int{0, 0, 1, 1, 2, 2}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("q = %v", q)
		}
	}
}

func TestAudioNetworkStructures(t *testing.T) {
	for _, s := range []BNStructure{FullyParameterized, DirectEvidence, InputOutput} {
		net := NewAudioSlice(s)
		if _, ok := net.Index(NodeEA); !ok {
			t.Fatalf("%v: no EA node", s)
		}
		for _, name := range AudioEvidenceNames {
			if _, ok := net.Index(name); !ok {
				t.Fatalf("%v: missing evidence %s", s, name)
			}
		}
		for _, v := range []TemporalVariant{TemporalFig8, TemporalToQuery, TemporalCorresponding} {
			d, err := NewAudioDBN(s, v)
			if err != nil {
				t.Fatalf("%v/%v: %v", s, v, err)
			}
			if d.StateSpaceSize() > 64 {
				t.Fatalf("%v: state space %d too large", s, d.StateSpaceSize())
			}
		}
	}
}

func TestAVNetworkStructures(t *testing.T) {
	for _, withPassing := range []bool{true, false} {
		d, err := NewAVDBN(withPassing)
		if err != nil {
			t.Fatal(err)
		}
		names := d.HiddenNames()
		hasPassing := false
		for _, n := range names {
			if n == NodePassing {
				hasPassing = true
			}
		}
		if hasPassing != withPassing {
			t.Fatalf("withPassing=%v but hidden=%v", withPassing, names)
		}
	}
}

func TestObservationArity(t *testing.T) {
	race := synth.GenerateRace(synth.GermanGP, 30, 7)
	f, err := Extract(race, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	obs := f.AudioObservations()
	if len(obs) != f.N || len(obs[0]) != len(AudioEvidenceNames) {
		t.Fatalf("audio obs dims %dx%d", len(obs), len(obs[0]))
	}
	av := f.AVObservations(true)
	if len(av[0]) != 9 {
		t.Fatalf("AV obs arity %d, want 9", len(av[0]))
	}
	av = f.AVObservations(false)
	if len(av[0]) != 8 {
		t.Fatalf("AV obs arity %d, want 8", len(av[0]))
	}
	// Observations must be consumable by the corresponding networks.
	d, err := NewAudioDBN(FullyParameterized, TemporalFig8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Filter(obs[:50], nil); err != nil {
		t.Fatalf("audio obs rejected: %v", err)
	}
}

// TestTable1Shape locks the paper's core finding: the DBN beats every
// static BN structure on emphasized-speech detection.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	l := testLab(t)
	rows, err := l.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	dbnRow := rows[3]
	for _, bn := range rows[:3] {
		if dbnRow.Recall < bn.Recall-0.15 {
			t.Errorf("DBN recall %v clearly below %s recall %v", dbnRow.Recall, bn.Name, bn.Recall)
		}
	}
	if dbnRow.F1() < 0.5 {
		t.Errorf("DBN F1 %v too low", dbnRow.F1())
	}
}

// F1 on a Row for test assertions.
func (r Row) F1() float64 {
	if r.Precision+r.Recall == 0 {
		return 0
	}
	return 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
}

// TestTable4Shape locks the passing sub-network crossover: the Belgian
// GP with the passing net has clearly lower highlight precision than
// the German GP, and the USA GP without it recovers.
func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	l := testLab(t)
	rows3, err := l.Table3()
	if err != nil {
		t.Fatal(err)
	}
	rows4, err := l.Table4()
	if err != nil {
		t.Fatal(err)
	}
	german := rows3[0]
	belgian := rows4[0]
	usa := rows4[4]
	if belgian.Precision >= german.Precision {
		t.Errorf("belgian precision %v not below german %v", belgian.Precision, german.Precision)
	}
	if usa.Precision <= belgian.Precision {
		t.Errorf("usa precision %v not above belgian %v", usa.Precision, belgian.Precision)
	}
	// Footnote 3: no fly-outs in the USA GP.
	usaFlyout := rows4[6]
	if usaFlyout.Precision != 0 || usaFlyout.Recall != 0 {
		t.Errorf("usa flyout = %v/%v, want 0/0", usaFlyout.Precision, usaFlyout.Recall)
	}
}

// TestFig9Shape locks the smoothness comparison.
func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	l := testLab(t)
	r, err := l.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if r.DBNRough >= r.BNRough {
		t.Errorf("DBN roughness %v not below BN %v", r.DBNRough, r.BNRough)
	}
	if len(r.BN) != len(r.DBN) {
		t.Errorf("series lengths differ")
	}
}

// TestAudioVsAVShape locks the §6 conclusion: fusing video roughly
// doubles highlight coverage over audio alone.
func TestAudioVsAVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	l := testLab(t)
	r, err := l.AudioVsAV()
	if err != nil {
		t.Fatal(err)
	}
	if r.AVCoverage <= r.AudioCoverage {
		t.Errorf("AV coverage %v not above audio %v", r.AVCoverage, r.AudioCoverage)
	}
	if r.AVCoverage < 0.5 {
		t.Errorf("AV coverage %v too low", r.AVCoverage)
	}
}

func TestShotAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	l := testLab(t)
	acc, err := l.ShotAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Errorf("shot accuracy %v too low", acc)
	}
}

func TestSplitSegments(t *testing.T) {
	obs := make([][]int, 10)
	segs := splitSegments(obs, 3)
	if len(segs) != 3 {
		t.Fatalf("segments = %d", len(segs))
	}
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	if len(splitSegments(obs, 0)) != 1 {
		t.Fatal("n=0 should give one segment")
	}
	if len(splitSegments(obs[:2], 5)) != 1 {
		t.Fatal("tiny input should give one segment")
	}
}

func TestAccumulateBN(t *testing.T) {
	series := make([]float64, 50)
	for i := 20; i < 30; i++ {
		series[i] = 1
	}
	acc := accumulateBN(series)
	if acc[29] <= acc[20] {
		t.Fatal("accumulation should rise through the burst")
	}
	if acc[0] != 0 {
		t.Fatal("leading zeros should stay zero")
	}
}

func TestScoreExcitementAdaptive(t *testing.T) {
	race := synth.GenerateRace(synth.GermanGP, 200, 3)
	series := make([]float64, 2000)
	for _, s := range race.Excitement {
		for i := int(s.Start * 10); i < int(s.End*10) && i < len(series); i++ {
			series[i] = 0.45 // below the fixed 0.5 threshold
		}
	}
	pr := scoreExcitementAdaptive(series, race)
	if pr.Recall == 0 {
		t.Fatal("adaptive threshold failed to catch sub-0.5 plateaus")
	}
	_ = eval.PR{}
}

// TestAnchorAblationShape locks the anchoring design decision: plain
// EM must not beat anchored EM on highlight recall (it decouples the
// sub-event nodes from the query node).
func TestAnchorAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	l := testLab(t)
	rows, err := l.AnchorAblation()
	if err != nil {
		t.Fatal(err)
	}
	anchored, plain := rows[0], rows[1]
	if anchored.Recall < plain.Recall-0.05 {
		t.Errorf("anchored recall %v below plain %v", anchored.Recall, plain.Recall)
	}
}

func TestQuantizeN(t *testing.T) {
	q := QuantizeN([]float64{0, 0.49, 0.51, 1, -0.2, 1.5}, 2)
	want := []int{0, 0, 1, 1, 0, 1}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("q = %v", q)
		}
	}
	if got := QuantizeN([]float64{0.99}, 4)[0]; got != 3 {
		t.Fatalf("4-level top = %d", got)
	}
}

func TestMonotoneShape(t *testing.T) {
	for _, levels := range []int{2, 3, 5} {
		up := monotoneShape(levels, true, 0.5)
		down := monotoneShape(levels, false, 0.5)
		sumU, sumD := 0.0, 0.0
		for i := 0; i < levels; i++ {
			sumU += up[i]
			sumD += down[i]
			if i > 0 {
				if up[i] < up[i-1] {
					t.Fatalf("up shape not increasing: %v", up)
				}
				if down[i] > down[i-1] {
					t.Fatalf("down shape not decreasing: %v", down)
				}
			}
		}
		if sumU < 0.999 || sumU > 1.001 || sumD < 0.999 || sumD > 1.001 {
			t.Fatalf("shapes not normalized: %v %v", sumU, sumD)
		}
	}
}
