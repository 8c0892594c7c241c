package study

import (
	"fmt"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/pricing"
	"enki/internal/profile"
	"enki/internal/sched"
)

// SessionConfig parameterizes one game session (Section VII-C).
type SessionConfig struct {
	// Rounds is the number of game rounds (paper: 16).
	Rounds int
	// TruthChangeEvery is how often subjects receive a fresh true
	// preference (paper: every 4 rounds). Artificial agents' truths
	// update every round.
	TruthChangeEvery int
	// Pricer prices hourly load.
	Pricer pricing.Pricer
	// Rating is the power rating r in kW.
	Rating float64
	// Mechanism carries the payment scaling factors.
	Mechanism mechanism.Config
	// ScoreScale converts utility into game points around 50:
	// score = clamp(0, 100, 50 + ScoreScale·U). Zero means 4.
	ScoreScale float64
}

// DefaultSessionConfig returns the paper's session parameters.
func DefaultSessionConfig() SessionConfig {
	return SessionConfig{
		Rounds:           16,
		TruthChangeEvery: 4,
		Pricer:           pricing.Quadratic{Sigma: pricing.DefaultSigma},
		Rating:           core.DefaultPowerRating,
		Mechanism:        mechanism.DefaultConfig(),
		ScoreScale:       4,
	}
}

func (c SessionConfig) validate() error {
	if c.Rounds <= 0 {
		return fmt.Errorf("study: rounds %d must be positive", c.Rounds)
	}
	if c.TruthChangeEvery <= 0 {
		return fmt.Errorf("study: truth change period %d must be positive", c.TruthChangeEvery)
	}
	if c.Pricer == nil {
		return fmt.Errorf("study: nil pricer")
	}
	if c.Rating <= 0 {
		return fmt.Errorf("study: rating %g must be positive", c.Rating)
	}
	if c.ScoreScale < 0 {
		return fmt.Errorf("study: score scale %g must be nonnegative", c.ScoreScale)
	}
	return c.Mechanism.Validate()
}

// ParticipantResult is one participant's full session trajectory.
type ParticipantResult struct {
	Model     string        // behavioral model name
	IsSubject bool          // true for subjects, false for artificial agents
	Rounds    []RoundRecord // one record per round
}

// SessionResult is the outcome of a full session.
type SessionResult struct {
	Treatment    int                 // 1 or 2
	Participants []ParticipantResult // subjects first, then agents
}

// Subjects returns only the subject trajectories.
func (s *SessionResult) Subjects() []ParticipantResult {
	var out []ParticipantResult
	for _, p := range s.Participants {
		if p.IsSubject {
			out = append(out, p)
		}
	}
	return out
}

// player is the engine's per-participant state.
type player struct {
	participant Participant
	isSubject   bool
	truth       core.Preference
	rho         float64
	history     []RoundRecord
}

// RunSession plays one full session: subjects and artificial agents
// submit preferences each round, Enki's greedy scheduler allocates,
// consumption is automated (within the true window, closest to the
// allocation), payments follow Eq. 7, and each participant's utility
// is transformed into a 0-100 score.
func RunSession(cfg SessionConfig, treatment int, subjects, agents []Participant, rng *dist.RNG) (*SessionResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ScoreScale == 0 {
		cfg.ScoreScale = 4
	}
	if len(subjects) == 0 {
		return nil, fmt.Errorf("study: session needs at least one subject")
	}

	gen, err := profile.NewGenerator(profile.DefaultConfig(), rng.Split())
	if err != nil {
		return nil, err
	}

	players := make([]*player, 0, len(subjects)+len(agents))
	for _, s := range subjects {
		players = append(players, &player{participant: s, isSubject: true})
	}
	for _, a := range agents {
		players = append(players, &player{participant: a, isSubject: false})
	}

	greedy := &sched.Greedy{Pricer: cfg.Pricer, Rating: cfg.Rating, RNG: rng.Split()}

	for round := 1; round <= cfg.Rounds; round++ {
		// Refresh truths: subjects every TruthChangeEvery rounds,
		// artificial agents every round.
		for _, p := range players {
			if !p.isSubject || (round-1)%cfg.TruthChangeEvery == 0 {
				prof := gen.Draw()
				p.truth = prof.Wide
				p.rho = prof.Rho
			}
		}

		if err := playRound(cfg, round, players, greedy); err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
	}

	res := &SessionResult{Treatment: treatment}
	for _, p := range players {
		res.Participants = append(res.Participants, ParticipantResult{
			Model:     p.participant.Model(),
			IsSubject: p.isSubject,
			Rounds:    p.history,
		})
	}
	return res, nil
}

func playRound(cfg SessionConfig, round int, players []*player, greedy *sched.Greedy) error {
	reports := make([]core.Report, len(players))
	for i, p := range players {
		sub := p.participant.Submit(round, p.truth, p.history)
		if err := sub.Validate(); err != nil {
			return fmt.Errorf("participant %d (%s): invalid submission: %w", i, p.participant.Model(), err)
		}
		if sub.Duration != p.truth.Duration {
			return fmt.Errorf("participant %d (%s): submitted duration %d, truth %d",
				i, p.participant.Model(), sub.Duration, p.truth.Duration)
		}
		reports[i] = core.Report{ID: core.HouseholdID(i), Pref: sub}
	}

	assignments, err := greedy.Allocate(reports)
	if err != nil {
		return err
	}

	assigned := make([]core.Interval, len(players))
	consumed := make([]core.Interval, len(players))
	prefs := make([]core.Preference, len(players))
	for i, p := range players {
		prefs[i] = reports[i].Pref
		assigned[i] = assignments[i].Interval
		// Consumption is automated per Section VII-B: within the true
		// interval and close to the allocation.
		consumed[i] = core.ClosestConsumption(p.truth, assigned[i])
	}

	chain, err := mechanism.SettleChain(cfg.Pricer, cfg.Mechanism, cfg.Rating, prefs, assigned, consumed, nil)
	if err != nil {
		return err
	}
	payments := chain.Payments

	for i, p := range players {
		valuation := core.Valuation(core.Satisfaction(assigned[i], p.truth), p.truth.Duration, p.rho)
		utility := core.Utility(valuation, payments[i])
		score := 50 + cfg.ScoreScale*utility
		if score < 0 {
			score = 0
		} else if score > 100 {
			score = 100
		}
		p.history = append(p.history, RoundRecord{
			Round:          round,
			Truth:          p.truth,
			Submitted:      reports[i].Pref,
			Allocation:     assigned[i],
			Consumption:    consumed[i],
			Payment:        payments[i],
			Utility:        utility,
			Score:          score,
			Defected:       core.Defected(assigned[i], consumed[i]),
			SubmittedTruth: reports[i].Pref == p.truth,
		})
	}
	return nil
}
