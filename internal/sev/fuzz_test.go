package sev

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadJSON checks the two dataset loaders against each other: on any
// input Store.ReadJSON and the query daemon's path (DecodeDataset, then
// AddAll on a fresh store) accept or reject together, and on accept they
// hold the same reports. The checked-in corpus
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
	})
}
