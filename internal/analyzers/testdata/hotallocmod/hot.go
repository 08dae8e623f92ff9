// Package hotallocmod is the hotalloc golden fixture: a standalone module
// (the analyzer shells out to `go build`, so it needs a real buildable
// module) with escaping hot regions (one a generic only ./inst
// instantiates), a clean one, an unannotated allocator, an allowed escape.
package hotallocmod

// BadHot violates its annotation: returning the pointer forces the
// allocation onto the heap, and the compiler says so.
//
//hot:noalloc
func BadHot() *int {
	x := new(int)
	*x = 1
	return x
}

// GoodHot stays on the stack: pure arithmetic over a borrowed slice.
//
//hot:noalloc
func GoodHot(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// ColdAlloc allocates freely — no annotation, no finding.
func ColdAlloc(n int) []int {
	return make([]int, n)
}

// AllowedHot documents an intentional cold-path escape inside a hot
// region with the analyzer's escape hatch.
//
//hot:noalloc
func AllowedHot() *byte {
	b := new(byte) //lint:allow hotalloc intentional cold-path escape
	return b
}

// Box is an annotated generic that allocates, instantiated only by the
// inst subpackage: compiling this package alone reports nothing for its
// body, so the analyzer must see the instantiating package's diagnostics.
//
//hot:noalloc
func Box[T any](v T) *T {
	p := new(T)
	*p = v
	return p
}
