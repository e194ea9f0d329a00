package core

import (
	"time"

	"falcon/internal/block"
	"falcon/internal/crowd"
	"falcon/internal/estimate"
	"falcon/internal/forest"
	"falcon/internal/mapreduce"
	"falcon/internal/model"
	"falcon/internal/rulesel"
	"falcon/internal/table"
	"falcon/internal/vclock"
)

// Options configures an end-to-end Falcon run.
type Options struct {
	// Cluster is the simulated Hadoop cluster (nil = 10-node default).
	Cluster *mapreduce.Cluster
	// Platform is the crowd platform (nil = perfect simulated workers).
	Platform crowd.Platform
	// CrowdCfg holds HIT batching and pricing constants.
	CrowdCfg crowd.Config
	// Budget caps crowd spending in dollars (0 = only the structural
	// C_max cap of §3.4 applies).
	Budget float64
	// Seed drives all randomized components.
	Seed int64

	// SampleN and SampleY configure sample_pairs (§5). Defaults: 1M, 100.
	SampleN int
	SampleY int
	// ALIterations caps active-learning iterations (§3.4; default 30).
	ALIterations int
	// Forest configures matcher training.
	Forest forest.Config
	// EvalCfg configures eval_rules.
	EvalCfg rulesel.EvalConfig
	// Weights configures select_opt_seq scoring.
	Weights rulesel.Weights

	// MaskIndexBuild enables §10.2 optimization 1 (build indexes during
	// crowd time).
	MaskIndexBuild bool
	// Speculative enables §10.2 optimization 2 (speculative rule and
	// matcher execution).
	Speculative bool
	// MaskedSelection enables §10.2 optimization 3 (mask pair selection in
	// the matching-stage al_matcher).
	MaskedSelection bool
	// MaskedSelectionMinPool is the candidate-set size above which masked
	// selection engages (paper: 50M).
	MaskedSelectionMinPool int
	// SpeculativeRuleCap bounds how many rules are speculatively executed.
	SpeculativeRuleCap int

	// EstimateAccuracy runs the Accuracy Estimator extension after
	// matching: crowd-based precision/recall estimation of the matcher.
	EstimateAccuracy bool
	// IterateRounds enables the full Corleone workflow of Figure 1: after
	// matching, estimate accuracy, crowd-label the most difficult pairs,
	// retrain, and repeat up to this many rounds or until the estimated
	// accuracy stops improving. Implies EstimateAccuracy.
	IterateRounds int
	// ExcludeSelfPairs drops pairs with equal row numbers everywhere —
	// used when deduplicating a table against itself (the paper's Songs
	// task matches "songs within a single table").
	ExcludeSelfPairs bool
	// PassIDsOnly enables §7.3 optimization 2 in the blocking jobs.
	PassIDsOnly bool
	// ForceStrategy overrides §10.1 physical-operator selection.
	ForceStrategy *block.Strategy
	// ForceBlocking overrides the plan-template choice of §10.1:
	// nil = automatic, true = always block, false = matcher-only.
	ForceBlocking *bool
}

// DefaultOptions returns the paper's configuration with every optimization
// enabled.
func DefaultOptions() Options {
	return Options{
		SampleN:                1_000_000,
		SampleY:                100,
		ALIterations:           30,
		MaskIndexBuild:         true,
		Speculative:            true,
		MaskedSelection:        true,
		MaskedSelectionMinPool: 50_000_000,
		SpeculativeRuleCap:     20,
		PassIDsOnly:            true,
	}
}

func (o Options) withDefaults() Options {
	if o.Cluster == nil {
		o.Cluster = mapreduce.Default()
	}
	if o.Platform == nil {
		o.Platform = crowd.NewRandomWorkers(0, 0, o.Seed+1)
	}
	if o.SampleN <= 0 {
		o.SampleN = 1_000_000
	}
	if o.SampleY <= 0 {
		o.SampleY = 100
	}
	if o.ALIterations <= 0 {
		o.ALIterations = 30
	}
	if o.MaskedSelectionMinPool <= 0 {
		o.MaskedSelectionMinPool = 50_000_000
	}
	if o.SpeculativeRuleCap <= 0 {
		o.SpeculativeRuleCap = 20
	}
	return o
}

// Result is the outcome of an end-to-end run.
type Result struct {
	// Matches are the predicted matching pairs.
	Matches []table.Pair
	// Candidates are the pairs surviving blocking (equal to A×B for the
	// matcher-only plan).
	Candidates []table.Pair
	// UsedBlocking reports which Figure-3 plan template ran.
	UsedBlocking bool
	// Strategy is the physical operator apply_blocking_rules used.
	Strategy block.Strategy
	// RuleChoice is the selected rule sequence with its §6 statistics.
	RuleChoice rulesel.SeqChoice
	// CandidateRules / RetainedRules count get_blocking_rules output and
	// eval_rules survivors.
	CandidateRules int
	RetainedRules  int

	// Timeline is the full virtual-time accounting (crowd, machine,
	// masked, unmasked, per-operator).
	Timeline vclock.Stats
	// Tasks is the raw scheduled task list (diagnostics).
	Tasks []*vclock.Task
	// UnoptimizedBlockTime is what apply_blocking_rules (incl. index
	// builds) would have cost with no masking (Table 4's parenthetical).
	UnoptimizedBlockTime time.Duration

	// Cost is the crowd spend in dollars; Questions the pair count asked.
	Cost      float64
	Questions int

	// SpecRuleHit / SpecMatcherHit report whether speculative execution
	// results were reused.
	SpecRuleHit    bool
	SpecMatcherHit bool

	// Accuracy is the Accuracy Estimator's crowd-based estimate (nil when
	// the extension is off).
	Accuracy *estimate.Accuracy
	// RoundF1 records the estimated F1 after the initial matcher and each
	// iterative-workflow round (len ≥ 2 only when iterating).
	RoundF1 []float64

	// BlockingForest and MatchingForest are the learned matchers.
	BlockingForest *forest.Forest
	MatchingForest *forest.Forest

	// Artifact is the run's learned model and complete serving artifact
	// (the train/serve contract): the rule sequence and matcher,
	// re-appliable to schema-compatible tables without a crowd, plus the
	// frozen dictionaries, corpora, B-row ID sets, and the prefix indexes
	// over B that the point-match path probes. Nil when no matcher was
	// learned.
	Artifact *model.MatcherArtifact
}
