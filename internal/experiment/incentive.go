package experiment

import (
	"fmt"
	"sort"
	"strings"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/pricing"
	"enki/internal/profile"
	"enki/internal/sched"
)

// Fig7Config sets up the Section VI-B incentive-compatibility study:
// a neighborhood of n households where household 1's best response is
// explored over every preference it could report.
type Fig7Config struct {
	// Households is the neighborhood size (paper: 50).
	Households int
	// Truth is household 1's true preference (paper: narrow (18, 20)).
	Truth core.Preference
	// Limits is the widest window household 1 would consider reporting
	// (paper: its wide interval (16, 24)).
	Limits core.Interval
	// Rho is household 1's valuation factor (paper: 5).
	Rho float64
	// Repeats averages utilities over this many runs (paper: 10).
	Repeats int
}

// DefaultFig7Config returns the paper's setting.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		Households: 50,
		Truth:      core.MustPreference(18, 20, 2),
		Limits:     core.Interval{Begin: 16, End: 24},
		Rho:        5,
		Repeats:    10,
	}
}

// ReportUtility is household 1's average utility when reporting a
// particular window.
type ReportUtility struct {
	Window  core.Interval
	Utility float64
}

// Fig7Result is the Figure 7 best-response surface.
type Fig7Result struct {
	Truth   core.Preference
	Reports []ReportUtility // every candidate report, best first
}

// Best returns the report with the highest average utility.
func (r *Fig7Result) Best() ReportUtility { return r.Reports[0] }

// UtilityOf looks up a report's mean utility; ok is false if the
// window was not a candidate.
func (r *Fig7Result) UtilityOf(w core.Interval) (float64, bool) {
	for _, ru := range r.Reports {
		if ru.Window == w {
			return ru.Utility, true
		}
	}
	return 0, false
}

// RunFigure7 explores household 1's best response when every other
// household reports truthfully (its narrow interval, fixed across the
// exploration). For each candidate window the run is repeated with
// fresh greedy tie-breaking, household 1 consumes within its true
// interval as close to its allocation as possible, and its Eq. 8
// utility is averaged. Weak Bayesian incentive-compatibility predicts
// the true interval maximizes this utility.
func RunFigure7(cfg Config, fcfg Fig7Config) (*Fig7Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fcfg.Truth.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: fig7 truth: %w", err)
	}
	if fcfg.Households < 2 {
		return nil, fmt.Errorf("experiment: fig7 needs at least 2 households")
	}
	if fcfg.Repeats <= 0 {
		return nil, fmt.Errorf("experiment: fig7 repeats %d must be positive", fcfg.Repeats)
	}
	pricer := cfg.Pricer()

	// The other households' profiles are generated once and kept
	// unchanged; their true preference is their narrow interval.
	gen, err := profile.NewGenerator(profile.DefaultConfig(), cfg.jobRNG(labelFig7Others))
	if err != nil {
		return nil, err
	}
	others := gen.DrawN(fcfg.Households - 1)

	var candidates []core.Interval
	for b := fcfg.Limits.Begin; b <= fcfg.Limits.End-fcfg.Truth.Duration; b++ {
		for e := b + fcfg.Truth.Duration; e <= fcfg.Limits.End; e++ {
			candidates = append(candidates, core.Interval{Begin: b, End: e})
		}
	}

	// One job per candidate window; each repeat draws its greedy
	// tie-breaking from the (Seed, candidate, repeat) stream so the
	// surface is identical for every worker count.
	utilities := make([]float64, len(candidates))
	err = cfg.engine().ForEach(len(candidates), func(ci int) error {
		report := core.Preference{Window: candidates[ci], Duration: fcfg.Truth.Duration}
		var total float64
		for rep := 0; rep < fcfg.Repeats; rep++ {
			rng := cfg.jobRNG(labelFig7, uint64(ci), uint64(rep))
			u, err := fig7Utility(cfg, fcfg, pricer, others, report, rng)
			if err != nil {
				return err
			}
			total += u
		}
		utilities[ci] = total / float64(fcfg.Repeats)
		return nil
	})
	if err != nil {
		return nil, err
	}

	result := &Fig7Result{Truth: fcfg.Truth}
	for ci, w := range candidates {
		result.Reports = append(result.Reports, ReportUtility{Window: w, Utility: utilities[ci]})
	}
	sort.SliceStable(result.Reports, func(i, j int) bool {
		return result.Reports[i].Utility > result.Reports[j].Utility
	})
	return result, nil
}

func fig7Utility(cfg Config, fcfg Fig7Config, pricer pricing.Pricer, others []profile.Profile, report core.Preference, rng *dist.RNG) (float64, error) {
	reports := make([]core.Report, 0, len(others)+1)
	reports = append(reports, core.Report{ID: 0, Pref: report})
	for i, o := range others {
		reports = append(reports, core.Report{ID: core.HouseholdID(i + 1), Pref: o.Narrow})
	}

	greedy := &sched.Greedy{Pricer: pricer, Rating: cfg.Rating, RNG: rng}
	assignments, err := greedy.Allocate(reports)
	if err != nil {
		return 0, err
	}

	prefs := make([]core.Preference, len(reports))
	assigned := make([]core.Interval, len(reports))
	consumed := make([]core.Interval, len(reports))
	for i := range reports {
		prefs[i] = reports[i].Pref
		assigned[i] = assignments[i].Interval
		consumed[i] = assigned[i]
	}
	// Household 1 consumes within its true interval, close to its
	// allocation; everyone else complies.
	consumed[0] = core.ClosestConsumption(fcfg.Truth, assigned[0])

	chain, err := mechanism.SettleChain(pricer, cfg.Mechanism, cfg.Rating, prefs, assigned, consumed, nil)
	if err != nil {
		return 0, err
	}

	valuation := core.Valuation(core.Satisfaction(assigned[0], fcfg.Truth), fcfg.Truth.Duration, fcfg.Rho)
	return core.Utility(valuation, chain.Payments[0]), nil
}

// Render prints the best-response table (Figure 7): the top reports and
// where the truth ranks.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: Utility of household 1 by reported window (truth %v)\n", r.Truth)
	fmt.Fprintf(&b, "%-12s %-12s\n", "report", "utility")
	elided := false
	for i, ru := range r.Reports {
		isTruth := ru.Window == r.Truth.Window
		if i >= 10 && !isTruth && i != len(r.Reports)-1 {
			elided = true
			continue
		}
		if elided {
			b.WriteString("...\n")
			elided = false
		}
		marker := ""
		if isTruth {
			marker = "  <- true interval"
		}
		fmt.Fprintf(&b, "%-12v %-12.3f%s\n", ru.Window, ru.Utility, marker)
	}
	return b.String()
}

// CSV renders the surface for plotting.
func (r *Fig7Result) CSV() string {
	var b strings.Builder
	b.WriteString("begin,end,utility\n")
	for _, ru := range r.Reports {
		fmt.Fprintf(&b, "%d,%d,%g\n", ru.Window.Begin, ru.Window.End, ru.Utility)
	}
	return b.String()
}
