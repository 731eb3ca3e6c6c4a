package core

import "unsafe"

// getfp returns its caller's frame pointer (loc_amd64.s).
func getfp() unsafe.Pointer

// frameLoc is callerLoc's fast path: it reads the return address skip
// frames above its caller off the frame-pointer chain instead of
// unwinding the stack. A frame pointer points at the caller's saved
// frame pointer, with the return address in the word above it, the
// layout the runtime's own frame-pointer unwinder reads. The chain holds
// physical frames only, so every function from frameLoc up to the frame
// it names is //go:noinline. It returns "" where the frame is a
// compiler-generated wrapper.
//
//go:noinline
func frameLoc(skip int) string {
	fp := getfp()
	for ; skip > 0; skip-- {
		fp = *(*unsafe.Pointer)(fp)
	}
	return cachedLoc(*(*uintptr)(unsafe.Add(fp, 8)))
}
