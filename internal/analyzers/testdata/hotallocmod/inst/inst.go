// Package inst instantiates the root package's annotated generic, so the
// compiler reports Box's escape only while compiling this package.
package inst

import "hotallocmod"

// IntBox boxes an int through the generic.
func IntBox(v int) *int { return hotallocmod.Box(v) }
