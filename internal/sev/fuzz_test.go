package sev

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
)

// FuzzReadJSON checks the two dataset loaders against each other: on any
// input Store.ReadJSON and a fresh Sharded's ReadJSON accept or reject
// together, and on accept they hold the same reports. The checked-in
// corpus (testdata/fuzz/FuzzReadJSON) includes the ID-less datasets the
// loaders once disagreed on.
func FuzzReadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewStore()
		errStore := st.ReadJSON(bytes.NewReader(data))
		sh := NewSharded(3)
		defer sh.Close()
		errSharded := sh.ReadJSON(bytes.NewReader(data))
		if (errStore == nil) != (errSharded == nil) {
			t.Fatalf("loaders disagree: Store.ReadJSON = %v, Sharded.ReadJSON = %v", errStore, errSharded)
		}
		if errStore != nil {
			return
		}
		if want, got := st.All(), shardedAll(sh); !reflect.DeepEqual(want, got) {
			t.Fatalf("loaded datasets differ:\nStore   %+v\nSharded %+v", want, got)
		}
	})
}

// shardedAll gathers every shard's reports in ascending ID order, the
// order Store.All returns.
func shardedAll(s *Sharded) []Report {
	parts := make([][]Report, s.Shards())
	fanOutInto(s, parts, (*Store).All)
	var all []Report
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}
