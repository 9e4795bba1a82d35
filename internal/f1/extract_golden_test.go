package f1

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"cobra/internal/monet"
	"cobra/internal/synth"
)

// featuresDigest is a SHA-256 over every field of f bit for bit: each
// series' float64 bits in struct order, the speech mask, the shot
// boundaries and every caption hit's word, time and score.
func featuresDigest(f *Features) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	floats := func(xs []float64) {
		u64(uint64(len(xs)))
		for _, x := range xs {
			u64(math.Float64bits(x))
		}
	}
	u64(uint64(f.N))
	for _, s := range [][]float64{
		f.Keywords, f.PauseRate, f.STEAvg, f.STEDyn, f.STEMax,
		f.PitchAvg, f.PitchDyn, f.PitchMax, f.MFCCAvg, f.MFCCMax,
		f.PartOfRace, f.Replay, f.ColorDiff, f.Semaphore, f.Dust, f.Sand, f.Motion,
		f.Passing,
	} {
		floats(s)
	}
	u64(uint64(len(f.Speech)))
	for _, b := range f.Speech {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	floats(f.ShotBoundaries)
	u64(uint64(len(f.Captions)))
	for _, c := range f.Captions {
		u64(uint64(len(c.Word)))
		h.Write([]byte(c.Word))
		u64(math.Float64bits(c.Time))
		u64(math.Float64bits(c.Score))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCase is one extraction whose digest was recorded from the
// serial extractor, before audio and video ran side by side.
type goldenCase struct {
	name    string
	profile synth.Profile
	dur     float64
	seed    int64
	opt     Options
	digest  string
}

func (c goldenCase) extract(t *testing.T) *Features {
	t.Helper()
	f, err := Extract(synth.GenerateRace(c.profile, c.dur, c.seed), c.opt)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

var goldenCases = []goldenCase{
	{"german-7", synth.GermanGP, 30, 7, Options{Seed: 7}, "116831519b0f658aa925bae5a3d11ddffc37ab505c8817d3e1a556ebb6997e92"},
	{"german-2001", synth.GermanGP, 30, 2001, Options{Seed: 2001}, "0900a9e2dfd0b9fec6097277445f53f579c8764c161b3389ba33df35ac69c6c6"},
	{"belgian-7", synth.BelgianGP, 30, 7, Options{Seed: 7}, "0d9a19cc2ab89225131a3f050cc1513098e24c607ea2d8daf4f6c09ba5007cee"},
	{"belgian-2001", synth.BelgianGP, 30, 2001, Options{Seed: 2001}, "88e3eeacd4670e11af11306026e37902790bb0c1a6f08852ef38479779aef69a"},
	// Neither a whole number of clips nor of audio frames.
	{"german-odd", synth.GermanGP, 6.345, 7, Options{Seed: 7}, "7d6dc6c2e18cb99ec5e68db583f8df430d9a77d63f470d890632d7d14eaf3391"},
	{"german-odd-skipvideo", synth.GermanGP, 6.345, 7, Options{Seed: 7, SkipVideo: true}, "2ebe0c89a9b1b00512831e3d8eb68a9850c218b70bf26e9577f1b94219470d9b"},
	{"german-7-skipvideo", synth.GermanGP, 30, 7, Options{Seed: 7, SkipVideo: true}, "72b1c6a70e1adac4e38c7e4ced5bf7198cbe124892238861624e3d635cc520ce"},
	{"german-7-skiptext", synth.GermanGP, 30, 7, Options{Seed: 7, SkipText: true}, "251f3ff250555821c7d7d859d9f5f6faaf0326b25a6be687d8fea348c9bfe0c9"},
}

// seamCase crosses many seams of the video map: 101.37 s of race, 1013
// clips in 32 chunks, with a replay (two DVEs) and two recognized
// caption words. Its digest was recorded while the frames were still
// one serial loop. Unlike the other long cases it runs under -short, so
// the race detector sees the map/fold.
var seamCase = goldenCase{"german-seam", synth.GermanGP, 101.37, 31, Options{Seed: 31}, "2b1e74f6f25fafe01dab6c03dee0659773a84ab30ea58470e86d63281a40d623"}

// withPoolWidth runs fn with the shared pool resized to w workers.
func withPoolWidth(w int, fn func()) {
	prev := monet.SetDefaultPoolWorkers(w)
	defer monet.SetDefaultPoolWorkers(prev)
	fn()
}

// TestExtractGolden pins Extract's output to the digests the serial
// extractor produced, at the default pool width and, for the seam race
// and german-7, at widths 1, 2 and 4 as well.
func TestExtractGolden(t *testing.T) {
	captions := 0
	for _, c := range goldenCases {
		if testing.Short() && c.dur > 15 {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			f := c.extract(t)
			captions += len(f.Captions)
			if got := featuresDigest(f); got != c.digest {
				t.Fatalf("digest %s, want %s", got, c.digest)
			}
		})
	}
	if !testing.Short() && captions == 0 {
		t.Fatal("no golden race recognized a caption: the digests do not cover caption hits")
	}
	// Under -short only the seam race runs, and only at width 4: the
	// widest map/fold, and about 80 s under the race detector.
	widthCases, widths := []goldenCase{seamCase, goldenCases[0]}, []int{1, 2, 4}
	if testing.Short() {
		widthCases, widths = widthCases[:1], widths[2:]
	}
	for _, c := range widthCases {
		for _, w := range widths {
			t.Run(fmt.Sprintf("%s/w%d", c.name, w), func(t *testing.T) {
				var f *Features
				withPoolWidth(w, func() { f = c.extract(t) })
				if got := featuresDigest(f); got != c.digest {
					t.Fatalf("digest %s, want %s", got, c.digest)
				}
				if c.name != seamCase.name {
					return
				}
				if len(f.Captions) == 0 {
					t.Error("the seam race recognized no caption")
				}
				if !slices.Contains(f.Replay, 1) {
					t.Error("the seam race detected no replay, so no DVE")
				}
			})
		}
	}
}

// TestExtractConcurrent runs two extractions at once on one pool: each
// must still produce its own golden output.
func TestExtractConcurrent(t *testing.T) {
	cases := []goldenCase{goldenCases[4], goldenCases[5]}
	digests := make([]string, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := Extract(synth.GenerateRace(c.profile, c.dur, c.seed), c.opt)
			if err != nil {
				t.Error(err)
				return
			}
			digests[i] = featuresDigest(f)
		}()
	}
	wg.Wait()
	for i, c := range cases {
		if digests[i] != c.digest {
			t.Errorf("%s: digest %s, want %s", c.name, digests[i], c.digest)
		}
	}
}

// TestPrefetch checks that extracting a corpus side by side caches the
// features one-at-a-time extraction gives, and extracts nothing twice.
func TestPrefetch(t *testing.T) {
	cfg := DefaultExpConfig()
	cfg.RaceDur = 3
	c := NewCorpus(cfg)
	videos := []string{"german-gp", "belgian-gp", "usa-gp"}
	took, err := c.Prefetch(videos)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range videos {
		if took[v] <= 0 {
			t.Errorf("%s: extraction time %v", v, took[v])
		}
		race, _ := c.Race(v)
		want, err := Extract(race, Options{Seed: cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.features(v)
		if err != nil {
			t.Fatal(err)
		}
		if featuresDigest(got) != featuresDigest(want) {
			t.Errorf("%s: prefetched features differ from a lone extraction", v)
		}
	}
	again, err := c.Prefetch(videos)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range videos {
		if again[v] != 0 {
			t.Errorf("%s: extracted again (%v)", v, again[v])
		}
	}
	if _, err := c.Prefetch([]string{"monaco-gp"}); err == nil {
		t.Error("Prefetch of an unknown video succeeded")
	}
}

// TestAudioPCMBounded checks that extraction streams the audio: what a
// SkipVideo extraction allocates grows with the race far slower than
// the race's PCM (8 B × 22 050 Hz a second), because only a few spans
// of PCM are rendered at a time and their buffers are reused.
func TestAudioPCMBounded(t *testing.T) {
	allocated := func(dur float64) uint64 {
		race := synth.GenerateRace(synth.GermanGP, dur, 3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Extract(race, Options{Seed: 3, SkipVideo: true}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := allocated(20), allocated(80)
	pcm := uint64(60 * synth.SampleRate * 8) // the 60 s between the two races
	t.Logf("20 s race: %d B, 80 s race: %d B; 60 s of PCM is %d B", short, long, pcm)
	if long-short > pcm/4 {
		t.Fatalf("60 s more race allocate %d B more, over a quarter of its %d B of PCM", long-short, pcm)
	}
}

// TestSeriesMatchFeatureNames checks the series table against the
// field each name stands for.
func TestSeriesMatchFeatureNames(t *testing.T) {
	f := goldenCases[4].extract(t)
	want := map[string][]float64{
		"keywords": f.Keywords, "pauserate": f.PauseRate,
		"steavg": f.STEAvg, "stedyn": f.STEDyn, "stemax": f.STEMax,
		"pitchavg": f.PitchAvg, "pitchdyn": f.PitchDyn, "pitchmax": f.PitchMax,
		"mfccavg": f.MFCCAvg, "mfccmax": f.MFCCMax,
		"partofrace": f.PartOfRace, "replay": f.Replay, "colordiff": f.ColorDiff,
		"semaphore": f.Semaphore, "dust": f.Dust, "sand": f.Sand, "motion": f.Motion,
		"passing": f.Passing, "audioex": f.AudioExcitementScore(),
	}
	series := f.series()
	if len(series) != len(FeatureNames) || len(want) != len(FeatureNames) {
		t.Fatalf("%d series, %d names, %d fields", len(series), len(FeatureNames), len(want))
	}
	for i, name := range FeatureNames {
		// Each series is its field itself, except the excitement score,
		// which is computed afresh.
		same := len(series[i]) == f.N && len(want[name]) == f.N && &series[i][0] == &want[name][0]
		if name == "audioex" {
			same = slices.Equal(series[i], want[name])
		}
		if !same {
			t.Errorf("series %d is not %s", i, name)
		}
	}
}
