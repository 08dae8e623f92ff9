// Command sevquery answers one SEV query offline, the CLI stand-in for
// the SQL queries the study ran against its SEV database (§4.2). It loads
// a dataset file produced by dcsim and prints the body dcnrd serves for
// the same request target, parsed by the same grammar.
//
// Usage:
//
//	sevquery [-data sevs.json] TARGET
//
// TARGET is a dcnrd query target, e.g. '/query/count?year=2017&by=device'
// or '/query/resolutions?by=year' (README, "Serving"). sevquery exits 1
// wherever dcnrd would answer anything but 200.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dcnr"
	"dcnr/internal/serve"
)

func main() {
	data := flag.String("data", "sevs.json", "SEV dataset file (from dcsim)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sevquery [-data sevs.json] TARGET")
		os.Exit(2)
	}
	if err := run(os.Stdout, *data, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "sevquery:", err)
		os.Exit(1)
	}
}

// run loads the dataset at path and writes target's answer to w.
func run(w io.Writer, path, target string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	store := dcnr.NewSEVStore()
	if err := store.ReadJSON(f); err != nil {
		return err
	}
	body, err := serve.Answer(store, target)
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}
