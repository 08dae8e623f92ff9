package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
)

// Outputs are compared as trees of the shapes encoding/json decodes into
// any — map[string]any, []any, float64, string, bool — with numbers equal
// to a relative 1e-9. Exact equality would be wrong here: some analyses
// sum floats while ranging over maps (InterAnalysis.ByContinent's MTTR,
// the sweep report's mean edge availability), so the last bits of those
// sums change from one call to the next.

// tree converts any Go value into a comparable tree: structs and maps
// become map[string]any (keys printed with fmt), numbers float64.
func tree(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		return v.Float()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return float64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return float64(v.Uint())
	case reflect.Bool:
		return v.Bool()
	case reflect.String:
		return v.String()
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return tree(v.Elem())
	case reflect.Slice, reflect.Array:
		out := make([]any, v.Len())
		for i := range out {
			out[i] = tree(v.Index(i))
		}
		return out
	case reflect.Map:
		out := make(map[string]any, v.Len())
		for it := v.MapRange(); it.Next(); {
			out[fmt.Sprint(it.Key())] = tree(it.Value())
		}
		return out
	case reflect.Struct:
		out := make(map[string]any, v.NumField())
		for i := 0; i < v.NumField(); i++ {
			out[v.Type().Field(i).Name] = tree(v.Field(i))
		}
		return out
	}
	return fmt.Sprint(v)
}

// sameJSON compares a JSON document with an expected tree.
func sameJSON(body []byte, want any) (bool, error) {
	var got any
	if err := json.Unmarshal(body, &got); err != nil {
		return false, err
	}
	return sameValue(got, want), nil
}

func sameValue(a, b any) bool {
	switch av := a.(type) {
	case float64:
		bv, ok := b.(float64)
		if !ok {
			return false
		}
		if math.IsNaN(av) || math.IsNaN(bv) || math.IsInf(av, 0) || math.IsInf(bv, 0) {
			return av == bv || math.IsNaN(av) && math.IsNaN(bv)
		}
		return math.Abs(av-bv) <= 1e-9*math.Max(1, math.Max(math.Abs(av), math.Abs(bv)))
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for k, x := range av {
			if y, ok := bv[k]; !ok || !sameValue(x, y) {
				return false
			}
		}
		return true
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !sameValue(av[i], bv[i]) {
				return false
			}
		}
		return true
	}
	return a == b
}

// digestOf hashes a tree with every number rounded to six significant
// digits, so the digest is stable although the last bits are not.
func digestOf(t any) string {
	h := sha256.New()
	canon(h, t)
	return hex.EncodeToString(h.Sum(nil))
}

func canon(w io.Writer, t any) {
	switch v := t.(type) {
	case float64:
		fmt.Fprintf(w, "%.6g", v)
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(w, "{")
		for _, k := range keys {
			fmt.Fprintf(w, "%q:", k)
			canon(w, v[k])
			fmt.Fprint(w, ",")
		}
		fmt.Fprint(w, "}")
	case []any:
		fmt.Fprint(w, "[")
		for _, x := range v {
			canon(w, x)
			fmt.Fprint(w, ",")
		}
		fmt.Fprint(w, "]")
	default:
		fmt.Fprintf(w, "%q", fmt.Sprint(v))
	}
}
