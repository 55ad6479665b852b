// WordCount example: the FunctionBench MapReduce workflow in both Python
// and Java runtime modes (§5.7 / Fig 13d). The Java mode exercises
// CDS-shared type metadata: every container maps the same class-data
// archive, so klass IDs embedded in one function's objects resolve
// identically in another's — the type-safety half of §4.3.
//
// Run: go run ./examples/wordcount
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"rmmap/internal/objrt"
	"rmmap/internal/platform"
	"rmmap/internal/workloads"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	for _, lang := range []objrt.Lang{objrt.LangPython, objrt.LangJava} {
		cfg := workloads.DefaultWordCount()
		cfg.BookBytes = 1 << 20
		cfg.Lang = lang
		fmt.Fprintf(w, "%s runtime, %d-byte book, %d mappers\n", lang, cfg.BookBytes, cfg.Mappers)
		for _, mode := range []platform.Mode{platform.ModeMessaging, platform.ModeStorageDrTM, platform.ModeRMMAPPrefetch} {
			engine, err := platform.NewEngine(workloads.WordCount(cfg), mode, platform.Options{},
				platform.DefaultClusterConfig())
			if err != nil {
				return err
			}
			res, err := engine.Run()
			if err != nil {
				return fmt.Errorf("%v: %w", mode, err)
			}
			out := res.Output.(workloads.WordCountResult)
			fmt.Fprintf(w, "  %-16v latency %v  %d words, %d distinct, top %q\n",
				mode, res.Latency, out.TotalWords, out.DistinctWords, out.TopWord)
		}
		fmt.Fprintln(w)
	}
	return nil
}
