package main

import (
	_ "embed"
	"strconv"
	"strings"

	"tilesim/internal/cmp"
)

// recordedVersion is the cmp.SimVersion the digests in digests.txt were
// recorded under. After a deliberate model change bumps SimVersion, runs
// are checked for determinism only and print their new digests, which
// replace the file's.
const recordedVersion = "tilesim-sim-v5"

// digestsTxt holds one "<workload> <seed> <sweep.Digest>" line per
// recorded run.
//
//go:embed digests.txt
var digestsTxt string

func recordedDigest(workload string, seed int64) (string, bool) {
	if recordedVersion != cmp.SimVersion {
		return "", false
	}
	prefix := workload + " " + strconv.FormatInt(seed, 10) + " "
	for _, line := range strings.Split(digestsTxt, "\n") {
		if d, ok := strings.CutPrefix(line, prefix); ok {
			return d, true
		}
	}
	return "", false
}
