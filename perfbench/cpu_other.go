//go:build !amd64

package main

import "runtime"

// cpuModel names only the architecture where CPUID is unavailable.
func cpuModel() string { return runtime.GOARCH }
