package experiment

import (
	"errors"
	"fmt"
	"strings"

	"tycoongrid/internal/predict"
	"tycoongrid/internal/strategy"
)

// This file is the end-to-end check on the streaming-predictor refactor: the
// strategy-comparison world is replayed under predicted-mean matchmaking once
// per prediction *pipeline* — the legacy batch path (copy the partition
// history, refit an AR model per decision) against the streaming path (the
// fit lives with the price ring, updated incrementally every clear) — under
// identical seeds and identical measured jobs. The two pipelines consume the
// same trailing window, so scheduling quality (cost, makespan, prediction
// error) should agree closely while the streaming path does O(1) work per
// decision; a drift here means the incremental fit diverged from the batch
// contract in ways the unit equivalence tests did not cover.

// PredictorPipeline names one prediction configuration under comparison.
type PredictorPipeline struct {
	Label     string // CSV/table identifier, e.g. "batch_ar"
	Predictor string // batch predict registry model (used when Streaming is "")
	Streaming string // streaming family; "" = legacy batch refit
}

// PredictorsParams shapes the pipeline comparison. The embedded scenario is
// reused from the strategies family; Strategies is ignored (every pipeline
// runs predicted-mean so only the prediction machinery differs).
type PredictorsParams struct {
	Scenario  StrategiesParams
	Pipelines []PredictorPipeline
}

// DefaultPredictorsParams compares the legacy batch AR pipeline against its
// streaming replacement on the paper-shaped bursty/steady scenario.
func DefaultPredictorsParams() PredictorsParams {
	return PredictorsParams{
		Scenario: DefaultStrategiesParams(),
		Pipelines: []PredictorPipeline{
			{Label: "batch_ar", Predictor: "ar"},
			{Label: "streaming_ar", Predictor: "ar", Streaming: predict.StreamingAR},
		},
	}
}

// PredictorOutcome is one pipeline's aggregate over its measured jobs.
type PredictorOutcome struct {
	Pipeline PredictorPipeline
	StrategyOutcome
}

// PredictorsResult is the full pipeline comparison.
type PredictorsResult struct {
	Params   PredictorsParams
	Outcomes []PredictorOutcome
}

// RunPredictors replays the scenario once per pipeline under the same seed
// (a paired design: identical waves, identical measured jobs) and returns
// the outcomes in the order requested.
func RunPredictors(p PredictorsParams) (*PredictorsResult, error) {
	if len(p.Pipelines) == 0 {
		return nil, errors.New("experiment: predictors needs at least one pipeline")
	}
	res := &PredictorsResult{Params: p}
	for _, pl := range p.Pipelines {
		if pl.Label == "" {
			return nil, errors.New("experiment: predictor pipeline without a label")
		}
		q := p.Scenario
		q.Predictor = pl.Predictor
		q.Streaming = pl.Streaming
		out, err := runOneStrategy(q, strategy.PredictedMean)
		if err != nil {
			return nil, fmt.Errorf("experiment: pipeline %q: %w", pl.Label, err)
		}
		res.Outcomes = append(res.Outcomes, PredictorOutcome{Pipeline: pl, StrategyOutcome: *out})
	}
	return res, nil
}

// String renders the comparison as an aligned table.
func (r *PredictorsResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %-14s %10s %12s %12s %12s %6s %6s  %s\n",
		"pipeline", "streaming", "cost", "makespan_min", "volatility", "pred_mae",
		"jobs", "fail", "picks")
	for _, o := range r.Outcomes {
		stream := o.Pipeline.Streaming
		if stream == "" {
			stream = "(batch)"
		}
		fmt.Fprintf(&sb, "%-16s %-14s %10.3f %12.1f %12.6f %12.6f %6d %6d  %s\n",
			o.Pipeline.Label, stream, o.MeanCost, o.MeanMakespanMin, o.Volatility,
			o.PredMAE, o.Jobs, o.Failed, formatPicks(o.Picks))
	}
	return sb.String()
}

// WriteCSV exports the comparison as predictors.csv, one row per pipeline.
func (r *PredictorsResult) WriteCSV(dir string) error {
	header := []string{"pipeline", "cost", "makespan_min", "volatility", "pred_mae",
		"jobs", "failed"}
	names := make([]string, len(r.Outcomes))
	rows := make([][]float64, len(r.Outcomes))
	for i, o := range r.Outcomes {
		names[i] = o.Pipeline.Label
		rows[i] = []float64{o.MeanCost, o.MeanMakespanMin, o.Volatility, o.PredMAE,
			float64(o.Jobs), float64(o.Failed)}
	}
	return writeNamedCSVFile(dir, "predictors.csv", header, names, rows)
}

// RepSpecPredictors replicates the pipeline comparison: each replication
// replays every pipeline under one derived seed (paired), reporting
// simulation-deterministic columns only — cost, makespan, volatility and
// prediction error; wall-clock throughput belongs to the bench package
// (predict.forecast_ns, predict.observe_ns), not here, so the CSVs stay
// byte-identical across worker counts.
func RepSpecPredictors(p PredictorsParams) RepSpec {
	var cols []string
	for _, pl := range p.Pipelines {
		cols = append(cols, pl.Label+"_cost", pl.Label+"_mksp_min", pl.Label+"_vol", pl.Label+"_prederr")
	}
	return RepSpec{
		Name: "predictors",
		Cols: cols,
		Run: func(seed int64) ([]float64, error) {
			q := p
			q.Scenario.World.Seed = seed
			q.Scenario.World.Tracer = quietTracer()
			res, err := RunPredictors(q)
			if err != nil {
				return nil, err
			}
			var out []float64
			for _, o := range res.Outcomes {
				out = append(out, o.MeanCost, o.MeanMakespanMin, o.Volatility, o.PredMAE)
			}
			return out, nil
		},
	}
}
