package mechanism

import (
	"math"
	"testing"

	"enki/internal/core"
	"enki/internal/dist"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFlexibilityPaperExample2(t *testing.T) {
	// Example 2: χ_A = (18,19,1), χ_B = χ_C = (18,20,1).
	// N_B = (3+2)/2 = 2.5 and f_B = (2/1)·(1/2.5) = 0.8. A is less
	// flexible than B and C: f_A < f_B = f_C.
	prefs := []core.Preference{
		core.MustPreference(18, 19, 1),
		core.MustPreference(18, 20, 1),
		core.MustPreference(18, 20, 1),
	}
	f := FlexibilityScores(prefs)
	if !almost(f[1], 0.8, 1e-12) {
		t.Errorf("f_B = %g, want 0.8", f[1])
	}
	if !almost(f[1], f[2], 1e-12) {
		t.Errorf("f_B = %g != f_C = %g", f[1], f[2])
	}
	if f[0] >= f[1] {
		t.Errorf("f_A = %g should be less than f_B = %g", f[0], f[1])
	}
	// f_A = (1/1)·(1/N_A), N_A = 3 → 1/3.
	if !almost(f[0], 1.0/3, 1e-12) {
		t.Errorf("f_A = %g, want 1/3", f[0])
	}
}

func TestFlexibilityPaperExample3(t *testing.T) {
	// Example 3: χ_A = (16,18,2), χ_B = χ_C = (18,21,2). A prefers an
	// off-peak window, so f_B = f_C < f_A.
	prefs := []core.Preference{
		core.MustPreference(16, 18, 2),
		core.MustPreference(18, 21, 2),
		core.MustPreference(18, 21, 2),
	}
	f := FlexibilityScores(prefs)
	if !(f[1] < f[0]) || !(f[2] < f[0]) {
		t.Errorf("expected f_B = f_C < f_A, got f = %v", f)
	}
	if !almost(f[1], f[2], 1e-12) {
		t.Errorf("f_B = %g != f_C = %g", f[1], f[2])
	}
	// A occupies its window alone: N_A = 1, f_A = (2/2)·1 = 1.
	if !almost(f[0], 1, 1e-12) {
		t.Errorf("f_A = %g, want 1", f[0])
	}
}

func TestFlexibilityIdenticalHouseholds(t *testing.T) {
	// Example 1: identical preferences → identical scores.
	prefs := []core.Preference{
		core.MustPreference(18, 20, 1),
		core.MustPreference(18, 20, 1),
		core.MustPreference(18, 20, 1),
	}
	f := FlexibilityScores(prefs)
	if !almost(f[0], f[1], 1e-12) || !almost(f[1], f[2], 1e-12) {
		t.Errorf("identical preferences must score identically, got %v", f)
	}
}

func TestFlexibilityWiderWindowScoresHigher(t *testing.T) {
	// Property 1: all else equal, a wider truthful window scores higher
	// flexibility (and therefore pays less).
	narrow := []core.Preference{
		core.MustPreference(18, 20, 1),
		core.MustPreference(18, 20, 1),
	}
	wide := []core.Preference{
		core.MustPreference(18, 22, 1),
		core.MustPreference(18, 20, 1),
	}
	fNarrow := FlexibilityScores(narrow)
	fWide := FlexibilityScores(wide)
	if fWide[0] <= fNarrow[0] {
		t.Errorf("widening the window must raise flexibility: %g -> %g", fNarrow[0], fWide[0])
	}
}

func TestFlexibilityOffPeakScoresHigher(t *testing.T) {
	// Property 2: preferring an uncrowded window scores higher than an
	// equally wide crowded window.
	crowd := []core.Preference{
		core.MustPreference(18, 21, 2),
		core.MustPreference(18, 21, 2),
		core.MustPreference(18, 21, 2),
	}
	offPeak := append([]core.Preference{core.MustPreference(8, 11, 2)}, crowd[1:]...)
	fCrowd := FlexibilityScores(crowd)
	fOff := FlexibilityScores(offPeak)
	if fOff[0] <= fCrowd[0] {
		t.Errorf("off-peak window must raise flexibility: %g -> %g", fCrowd[0], fOff[0])
	}
}

func TestFlexibilityScoreSingle(t *testing.T) {
	p := core.MustPreference(18, 22, 2)
	got := FlexibilityScore(p, []core.Preference{p})
	// Alone: N = 1, f = width/duration = 2.
	if !almost(got, 2, 1e-12) {
		t.Errorf("solo flexibility = %g, want 2", got)
	}
}

func TestFlexibilityDegenerate(t *testing.T) {
	if got := flexibility(core.Preference{}, 0); got != 0 {
		t.Errorf("zero-width preference flexibility = %g, want 0", got)
	}
}

// TestFlexibilityScoresIntoMatchesPerHourSum: the prefix-sum Eq. 4
// scores every household bit for bit as FlexibilityScore does from the
// per-hour occupancy, over random populations mixing one-hour,
// whole-day and arbitrary windows (some reaching outside the day, as
// unvalidated preferences may), at sizes from one household to a
// city-sized shard.
func TestFlexibilityScoresIntoMatchesPerHourSum(t *testing.T) {
	rng := dist.New(2017)
	for k := 0; k < 300; k++ {
		n := 1 + rng.Intn(40)
		if k%30 == 0 {
			n = 1 + rng.Intn(2000)
		}
		prefs := make([]core.Preference, n)
		for i := range prefs {
			var w core.Interval
			switch rng.Intn(4) {
			case 0: // one hour
				h := rng.Intn(core.HoursPerDay)
				w = core.Interval{Begin: h, End: h + 1}
			case 1: // the whole day
				w = core.Interval{Begin: 0, End: core.HoursPerDay}
			case 2: // anywhere, possibly past either end of the day
				b := rng.Intn(core.HoursPerDay+8) - 4
				w = core.Interval{Begin: b, End: b + rng.Intn(core.HoursPerDay)}
			default:
				b := rng.Intn(core.HoursPerDay)
				w = core.Interval{Begin: b, End: b + 1 + rng.Intn(core.HoursPerDay-b)}
			}
			prefs[i] = core.Preference{Window: w, Duration: 1 + rng.Intn(max(w.Len(), 1))}
		}
		got := FlexibilityScoresInto(make([]float64, n), prefs)
		for i, p := range prefs {
			if want := FlexibilityScore(p, prefs); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("population %d (n=%d): household %d %v scores %v, per-hour sum gives %v",
					k, n, i, p, got[i], want)
			}
		}
	}
}

func TestActualFlexibilities(t *testing.T) {
	predicted := []float64{1.5, 0.8}
	assignments := []core.Interval{{Begin: 18, End: 20}, {Begin: 20, End: 22}}
	consumptions := []core.Interval{{Begin: 18, End: 20}, {Begin: 19, End: 21}}
	got := ActualFlexibilities(predicted, assignments, consumptions)
	if got[0] != 1.5 {
		t.Errorf("compliant household keeps its score: got %g", got[0])
	}
	if got[1] != 0 {
		t.Errorf("defector's actual flexibility must be 0: got %g", got[1])
	}
}
