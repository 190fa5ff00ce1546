package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes the CPUID instruction for the given leaf (cpu_amd64.s).
func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string, read with CPUID rather than
// from a file outside the benchmark's directory.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000); max < 0x80000004 {
		return "unknown"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf)
		for _, r := range []uint32{a, bx, c, d} {
			b = binary.LittleEndian.AppendUint32(b, r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}
