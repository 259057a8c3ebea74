// Command tracegen captures a synthetic application's memory-operation
// stream into the tilesim trace format, or summarizes an existing trace.
//
//	tracegen -app MP3D -refs 5000 > mp3d.trace
//	tracegen -summarize mp3d.trace
//
// `tilesim -replay mp3d.trace` runs a captured trace through the full
// simulator.
package main

import (
	"flag"
	"fmt"
	"os"

	"tilesim/internal/trace"
	"tilesim/internal/workload"
)

func main() {
	var (
		app       = flag.String("app", "FFT", "application to capture")
		refs      = flag.Int("refs", 2000, "references per core")
		seed      = flag.Int64("seed", 1, "workload seed")
		summarize = flag.String("summarize", "", "summarize an existing trace file instead of generating")
	)
	flag.Parse()

	if *summarize != "" {
		f, err := os.Open(*summarize)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err := trace.Decode(f, 0)
		if err != nil {
			fatal(err)
		}
		s := tr.Summarize()
		fmt.Printf("cores      %d\n", s.Cores)
		fmt.Printf("loads      %d\n", s.Loads)
		fmt.Printf("stores     %d\n", s.Stores)
		fmt.Printf("computes   %d\n", s.Computes)
		fmt.Printf("barriers   %d\n", s.Barriers)
		fmt.Printf("blocks     %d distinct (%.1f%% shared between cores)\n", s.Blocks, s.SharedPct)
		return
	}

	gen, err := workload.NewNamedApp(*app, 16, *refs, *seed)
	if err != nil {
		fatal(err)
	}
	tr := trace.Capture(gen, 16)
	if err := tr.Encode(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
