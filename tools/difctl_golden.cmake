# CTest script: cross-commit report golden.
#
# Regenerates the reports of the four determinism commands pinned in
# scripts/ci.sh and compares their SHA-256 digests with GOLDEN
# (tests/golden/difctl_reports.sha256, `sha256sum` format). ci.sh only
# `cmp`s two runs of the same build; this pins behaviour across commits, so
# a change that must keep every report byte-identical is checked here.
# Re-pinning a digest is a behaviour change: list it and its reason in
# CHANGES.md.
#
# Exit 3 (the run finished, but some round aborted or an SLO was breached)
# is an expected outcome for these scenarios; only 1/2 are failures.

set(report_campaign_mixed.json campaign --seeds 0..7 --scenario mixed)
set(report_heal.json heal --seeds 0,2)
set(report_traffic.json
    traffic --hosts 6 --components 18 --seed 7 --duration-ms 30000)
set(report_fuzz.json fuzz --seed 0 --rounds 5)

file(STRINGS ${GOLDEN} lines)
set(checked 0)
set(mismatched "")
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
    message(FATAL_ERROR "malformed golden line: '${line}'")
  endif()
  set(want ${CMAKE_MATCH_1})
  set(name ${CMAKE_MATCH_2})
  if(NOT DEFINED report_${name})
    message(FATAL_ERROR "golden names an unknown report: ${name}")
  endif()
  set(out ${WORKDIR}/golden_${name})
  file(REMOVE ${out})
  execute_process(COMMAND ${DIFCTL} ${report_${name}} --json ${out}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(NOT (code EQUAL 0 OR code EQUAL 3) OR NOT EXISTS ${out})
    message(FATAL_ERROR "difctl ${report_${name}} failed (exit ${code})")
  endif()
  file(SHA256 ${out} got)
  if(NOT got STREQUAL want)
    list(APPEND mismatched "${name}: want ${want}, got ${got} (${out})")
  endif()
  math(EXPR checked "${checked} + 1")
endforeach()

if(NOT checked EQUAL 4)
  message(FATAL_ERROR "expected 4 golden reports, found ${checked}")
endif()
if(mismatched)
  string(REPLACE ";" "\n  " mismatched "${mismatched}")
  message(FATAL_ERROR "report digests differ from the golden:\n  ${mismatched}")
endif()
