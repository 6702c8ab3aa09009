// Command datagen generates a synthetic HQ ⋈ EX workload and persists its
// four text databases (two targets, two training splits) as JSON:
//
//	datagen -docs 4000 -seed 1 -out ./data
//
// The files carry full document text plus gold mention annotations, so they
// can be reloaded with corpus.Load for offline experimentation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"joinopt/internal/workload"
)

func main() {
	var (
		docs = flag.Int("docs", 4000, "documents per text database")
		seed = flag.Int64("seed", 1, "generation seed")
		out  = flag.String("out", "data", "output directory")
	)
	flag.Parse()

	w, err := workload.HQJoinEX(workload.Params{NumDocs: *docs, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	save := func(name string, save func(string) error) {
		path := filepath.Join(*out, name+".json")
		if err := save(path); err != nil {
			fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%.1f MiB)\n", path, float64(info.Size())/(1<<20))
	}
	save(w.DB[0].Name, w.DB[0].SaveFile)
	save(w.DB[1].Name, w.DB[1].SaveFile)
	save(w.Train[0].Name, w.Train[0].SaveFile)
	save(w.Train[1].Name, w.Train[1].SaveFile)

	for i := 0; i < 2; i++ {
		stats := w.DB[i].Stats(w.Task[i])
		fmt.Printf("%s: task %s, |D|=%d |Dg|=%d |Db|=%d |Ag|=%d |Ab|=%d\n",
			w.DB[i].Name, w.Task[i], stats.NumDocs(), stats.NumGood, stats.NumBad,
			stats.GoodValues(), stats.BadValues())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
