package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"memreliability/internal/sweep"
)

// digestsJSON holds the reference SHA-256 digests of every artifact the
// benchmark produces, one per input variant. Regenerate it with
// --write-digests only when an artifact is meant to change.
//
//go:embed digests.json
var digestsJSON []byte

// digestFile is the layout of digests.json.
type digestFile struct {
	GridMC  []string `json:"grid_mc"`
	GridDet []string `json:"grid_det"`
	Cluster []string `json:"cluster"`
}

// referenceDigests decodes the embedded digests.
func referenceDigests() (*digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if len(d.GridMC) != numVariants || len(d.GridDet) != numVariants || len(d.Cluster) != numVariants {
		return nil, fmt.Errorf("digests.json: want %d digests per artifact", numVariants)
	}
	return &d, nil
}

// writeDigestFile recomputes every reference digest with sweep.Run.
func writeDigestFile(path string) error {
	var d digestFile
	for v := 0; v < numVariants; v++ {
		mcSpec, detSpec := gridSpecs(v, 0)
		for _, p := range []struct {
			spec sweep.Spec
			into *[]string
		}{{mcSpec, &d.GridMC}, {detSpec, &d.GridDet}, {clusterSpec(v, 0), &d.Cluster}} {
			a, err := sweep.Run(context.Background(), p.spec, sweep.Options{})
			if err != nil {
				return err
			}
			sum, _, err := digest(a)
			if err != nil {
				return err
			}
			*p.into = append(*p.into, sum)
		}
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
