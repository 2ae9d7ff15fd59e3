package hotalloc

import (
	"fmt"
	"strconv"
)

//samplelint:hotpath
func flaggedSprintf(id string, v float64) string {
	return fmt.Sprintf("%s=%f", id, v) // want `fmt\.Sprintf`
}

//samplelint:hotpath
func flaggedConcat(id string, n int) string {
	return id + strconv.Itoa(n) // want `string concatenation`
}

//samplelint:hotpath
func flaggedConcatAssign(id string, suffix string) string {
	id += suffix // want `string concatenation`
	return id
}

//samplelint:hotpath
func flaggedBoxingArg(sink func(any), v float64) {
	sink(v) // want `boxes a float64`
}

//samplelint:hotpath
func flaggedBoxingConversion(v float64) any {
	return any(v) // want `boxes a float64`
}

//samplelint:hotpath
func flaggedBoxingAssign(v float64) any {
	var out any
	out = v // want `boxes a float64`
	return out
}

//samplelint:hotpath
func flaggedUncappedAppend(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want `uncapped append`
	}
	return out
}

//samplelint:hotpath
func allowedCappedAppend(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// Appending into a parameter is the strconv.Append*-style idiom: the
// caller owns the buffer and its capacity planning.
//
//samplelint:hotpath
func allowedParamAppend(dst []byte, b byte) []byte {
	return append(dst, b)
}

// A reslice like buf[:0] is the pooled-buffer reuse idiom.
//
//samplelint:hotpath
func allowedReuseAppend(e *encoder, payload []byte) {
	e.buf = append(e.buf[:0], payload...)
}

type encoder struct{ buf []byte }

// A head-drop reslice of a field strands its capacity: the shape of a
// pending-probe queue drained one element at a time.
//
//samplelint:hotpath
func flaggedHeadDrop(q *probeQueue, t int) bool {
	if len(q.pending) > 0 && q.pending[0] == t {
		q.pending = q.pending[1:] // want `drops the head of q\.pending`
		return true
	}
	return false
}

// Any non-constant low bound drops the head too.
//
//samplelint:hotpath
func flaggedHeadDropVar(q *probeQueue, k int) {
	q.pending = q.pending[k:] // want `drops the head of q\.pending`
}

// A cursor keeps the capacity; truncating reslices ([:n], [0:n]) and
// reslicing into a different slice stay legal.
//
//samplelint:hotpath
func allowedCursor(q *probeQueue, t int) bool {
	if q.cur < len(q.pending) && q.pending[q.cur] == t {
		q.cur++
		return true
	}
	q.pending = q.pending[:0]
	q.pending = q.pending[0:len(q.pending)]
	rest := q.pending[q.cur:]
	return len(rest) > 0
}

type probeQueue struct {
	pending []int
	cur     int
}

// Constant folding happens at compile time; only runtime
// concatenation allocates.
//
//samplelint:hotpath
func allowedConstConcat() string {
	const prefix = "tick" + "batch"
	return prefix
}

// fmt.Errorf is exempt: error construction is the cold path, even
// when the operands include a float64.
//
//samplelint:hotpath
func allowedErrorf(v float64) error {
	return fmt.Errorf("non-finite tick %v", v)
}

// Integers box too, but the check targets the tick type; an int
// argument to an interface parameter stays legal.
//
//samplelint:hotpath
func allowedIntBoxing(sink func(any), n int) {
	sink(n)
}

// Un-annotated functions are out of scope entirely.
func allowedColdPath(id string, v float64) string {
	var out []byte
	out = append(out, id...)
	return fmt.Sprintf("%s=%f", string(out), v)
}
