#!/bin/sh
# Codegen guard for the lane-major MVA kernel.
#
#   tools/check_kernel_codegen.sh build-release/src/core/libmtperf_core.a
#
# Disassembles the AVX2 (arch_x86_64_v3) and AVX-512 (arch_x86_64_v4)
# versions of residence_level and update_level in the core library and
# fails if any of them contains a cross-lane permute or gather
# (vpermt2pd, vpermi2pd, vpermpd, vperm2f128, vgather*).  The kernel keeps
# one lane per vector element, so such an instruction means the compiler
# vectorized across occupancies or stations instead of lanes and
# transposes on every step, which costs about 2x with every result still
# correct.  Also fails if it finds none of the four functions, so a rename
# cannot turn the guard into a no-op.  Needs GNU objdump; x86-64 builds
# with GCC only (other builds have no ISA versions to check).
set -eu

lib=${1:?usage: $0 path/to/libmtperf_core.a}
[ -f "$lib" ] || { echo "no such library: $lib" >&2; exit 2; }

objdump -d --no-show-raw-insn "$lib" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    name = $2
    gsub(/^<|>:$/, "", name)
    hot = name ~ /(residence_level|update_level).*\.arch_x86_64_v[34]$/
    if (hot) { seen[name] = 1; count[name] = 0 }
    next
  }
  hot && /\t/ {
    split($0, field, "\t")
    split(field[2], op, " ")
    count[name]++
    if (op[1] ~ /^(vpermt2pd|vpermi2pd|vpermpd|vperm2f128|vgather)/) {
      bad[name] = 1
      uses[name " " op[1]]++
      failed = 1
    }
  }
  END {
    for (f in seen) {
      printf "%-4s %5d instructions  %s\n", (f in bad ? "FAIL" : "ok"), count[f], f
      n++
    }
    for (u in uses) {
      split(u, part, " ")
      printf "     %d x %s in %s\n", uses[u], part[2], part[1]
    }
    if (n != 4) {
      printf "expected 4 kernel ISA versions, found %d\n", n
      exit 1
    }
    exit failed ? 1 : 0
  }'
