//go:build !amd64

package core

// frameLoc walks no frame-pointer chain off amd64: callerLoc takes the
// runtime.Callers path.
func frameLoc(int) string { return "" }
