package diff

import (
	"context"
	"fmt"

	"setupsched"
	"setupsched/sched"
)

// CheckEngineParallel cross-checks the SolveAll fan-out against the
// serial path on one instance.  Every paper spec is solved twice off one
// shared preparation: serially (Solver.Solve, the reference) and through
// Solver.SolveAll with the given fan-out width.  Both must return
// bit-identical makespans, certified lower bounds, accepted guesses and
// probe counts.  Mismatches come back as human-readable violations; the
// error return is reserved for infrastructure failures.
func CheckEngineParallel(ctx context.Context, in *sched.Instance, eps float64, parallelism int) ([]string, error) {
	if parallelism < 2 {
		parallelism = 2
	}
	solver, err := setupsched.NewSolver(in)
	if err != nil {
		return nil, err
	}
	specs := Specs(eps)
	runs, specEps := specRuns(specs)
	fanned, err := solver.SolveAll(ctx,
		setupsched.WithRuns(runs...),
		setupsched.WithEpsilon(specEps),
		setupsched.WithParallelism(parallelism))
	if err != nil {
		return nil, err
	}

	var violations []string
	for i, spec := range specs {
		opts := []setupsched.Option{setupsched.WithAlgorithm(spec.Algorithm)}
		if spec.Algorithm == setupsched.EpsilonSearch {
			opts = append(opts, setupsched.WithEpsilon(spec.Epsilon))
		}
		serial, err := solver.Solve(ctx, spec.Variant, opts...)
		if err != nil {
			return violations, err
		}
		if fanned[i].Err != nil {
			return violations, fanned[i].Err
		}
		fan := fanned[i].Result
		if !fan.Makespan.Equal(serial.Makespan) {
			violations = append(violations, fmt.Sprintf(
				"%s: SolveAll fan-out makespan %s != serial %s", spec.Name, fan.Makespan, serial.Makespan))
		}
		if !fan.LowerBound.Equal(serial.LowerBound) {
			violations = append(violations, fmt.Sprintf(
				"%s: SolveAll fan-out lower bound %s != serial %s", spec.Name, fan.LowerBound, serial.LowerBound))
		}
		if !fan.Guess.Equal(serial.Guess) {
			violations = append(violations, fmt.Sprintf(
				"%s: SolveAll fan-out accepted guess %s != serial %s", spec.Name, fan.Guess, serial.Guess))
		}
		if fan.Algorithm != serial.Algorithm {
			violations = append(violations, fmt.Sprintf(
				"%s: SolveAll fan-out algorithm %q != serial %q", spec.Name, fan.Algorithm, serial.Algorithm))
		}
		if fan.Probes != serial.Probes {
			violations = append(violations, fmt.Sprintf(
				"%s: SolveAll fan-out probes %d != serial %d", spec.Name, fan.Probes, serial.Probes))
		}
	}
	return violations, nil
}
