package sev

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadJSON checks the two dataset loaders against each other: on any
// input Store.ReadJSON and the query daemon's path (DecodeDataset, then
// AddAll on a fresh store) accept or reject together, and on accept they
// hold the same reports, and both answer Get and SetProvenance exactly for
// the IDs they hold (checkIDLookups). The checked-in corpus
// (testdata/fuzz/FuzzReadJSON) includes the ID-less datasets the loaders
// once disagreed on.
func FuzzReadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewStore()
		errStore := st.ReadJSON(bytes.NewReader(data))
		appended := NewStore()
		errAppend := loadAppend(appended, data)
		if (errStore == nil) != (errAppend == nil) {
			t.Fatalf("loaders disagree: Store.ReadJSON = %v, DecodeDataset+AddAll = %v", errStore, errAppend)
		}
		if errStore != nil {
			return
		}
		if want, got := st.All(), appended.All(); !reflect.DeepEqual(want, got) {
			t.Fatalf("loaded datasets differ:\nReadJSON %+v\nAddAll   %+v", want, got)
		}
		checkIDLookups(t, st, "ReadJSON")
		checkIDLookups(t, appended, "DecodeDataset+AddAll")
	})
}

// FuzzQueryMatchesScan decodes its input as a script of Add and AddAll
// calls, each followed by one query (see ingestAndCheck), and checks every
// result method of each query against the brute-force Query.matches scan.
// The checked-in corpus (testdata/fuzz/FuzzQueryMatchesScan) holds a
// duplicate-cause report under a query with every predicate set, and a
// batch of cause-less reports with equal starts.
func FuzzQueryMatchesScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every step rescans the store, so an execution costs the square
		// of the input's length. Longer inputs are passed over rather than
		// cut short: they would never add coverage but would still be
		// minimized byte by byte, which stalls the fuzzer for minutes.
		if len(data) > 2048 {
			return
		}
		src := byteSource(data)
		ingestAndCheck(t, NewStore(), &src, false)
	})
}
