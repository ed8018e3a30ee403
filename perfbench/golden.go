package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// goldenSeed is the default seed, the one golden.json fingerprints.
const goldenSeed = 1

// printGolden recomputes golden.json: for each trace workload it runs
// the default-seed pass, checks the monitor against the brute-force
// predict.Races decider over the whole trace, and prints the pass's
// fingerprint (python3 perfbench/run.py --write-golden >
// perfbench/golden.json). The decider is quadratic, so this takes minutes; it is
// run by hand when a trace workload's shape changes.
func printGolden(w io.Writer) error {
	out := map[string]golden{}
	for _, name := range []string{"trace-hb", "trace-syncp-hot"} {
		shape := traceShapes[name]()
		data, err := encodeTrace(shape, goldenSeed, shape.events, nil, -1, -1)
		if err != nil {
			return err
		}
		ref, _, err := monitorPass(data, shape.pred, 0, nil, -1, -1)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := crossCheck(data, shape.pred, 0); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "%s: monitor ≡ predict.Races over %d events (%.0fs)\n", name, ref.Events, time.Since(t0).Seconds())
		out[name] = fingerprint(goldenSeed, len(data), ref)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
