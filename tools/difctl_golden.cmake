# CTest script: cross-commit report golden.
#
# Regenerates the reports of the four determinism commands pinned in
# scripts/ci.sh, a midmigration and a recovery-armed campaign, and the check
# layer's reports over two generated models, and compares their SHA-256 digests with GOLDEN
# (tests/golden/difctl_reports.sha256, `sha256sum` format). ci.sh only
# `cmp`s two runs of the same build; this pins behaviour across commits, so
# a change that must keep every report byte-identical is checked here.
# Re-pinning a digest is a behaviour change: list it and its reason in
# CHANGES.md.
#
# Exit 3 (the run finished, but some round aborted or an SLO was breached)
# is an expected outcome for these scenarios; only 1/2 are failures, except
# for a report listed in pins_violations: it pins a known invariant
# violation, so its exit 1 is expected (its digest still has to match).
#
# @OUT@ stands for the report path; a command without it prints its report
# to stdout. @FLEET@ stands for the generated fleet model, @SMALL@ for a
# smaller generated model the k = 2 resilience proof covers in ctest time.

cmake_policy(SET CMP0057 NEW)  # if(IN_LIST)

set(report_campaign_mixed.json
    campaign --seeds 0..7 --scenario mixed --json @OUT@)
set(report_heal.json heal --seeds 0,2 --json @OUT@)
set(report_traffic.json
    traffic --hosts 6 --components 18 --seed 7 --duration-ms 30000
    --json @OUT@)
set(report_fuzz.json fuzz --seed 0 --rounds 5 --json @OUT@)
# Migration under faults, and the recovery-armed ownership protocol
# (store-and-forward, custody precedence/rebroadcast, heal rounds). Seed 2's
# centralized run double-hosts a component (a census violation, the known
# recovery defect), so that report exits 1.
set(report_campaign_midmigration.json
    campaign --seeds 0..4 --scenario midmigration --json @OUT@)
set(report_campaign_recovery.json
    campaign --seeds 0..3 --scenario mixed --recovery --json @OUT@)
set(pins_violations campaign_recovery.json)
# The check layer at fleet scale: spec rules, then placement audit plus the
# k=1 resilience sweep (its diagnostic cap and suppression summary
# included), over a 300-host, 600-component model with regions and
# constraints.
set(report_check_fleet.json check @FLEET@ --json)
set(report_audit_fleet.json audit @FLEET@ --json)
# The k = 2 minimum-vertex-cut proof on top of the k = 1 sweep and the
# region analysis.
set(report_audit_k2.json audit @SMALL@ --resilience-k 2 --json)
set(expected_reports 9)

set(fleet ${WORKDIR}/golden_fleet_system.json)
execute_process(
  COMMAND ${DIFCTL} generate --hosts 300 --components 600 --seed 5
          --constraints 40 --regions 4
  RESULT_VARIABLE code OUTPUT_FILE ${fleet} ERROR_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "difctl generate failed (exit ${code})")
endif()
set(small ${WORKDIR}/golden_small_system.json)
execute_process(
  COMMAND ${DIFCTL} generate --hosts 60 --components 120 --seed 5
          --constraints 8 --regions 3
  RESULT_VARIABLE code OUTPUT_FILE ${small} ERROR_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "difctl generate failed (exit ${code})")
endif()

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
  set(args ${report_${name}})
  if("@OUT@" IN_LIST args)
    list(TRANSFORM args REPLACE "^@OUT@$" "${out}")
    set(stdout ${out}.stdout)
  else()
    set(stdout ${out})
  endif()
  list(TRANSFORM args REPLACE "^@FLEET@$" "${fleet}")
  list(TRANSFORM args REPLACE "^@SMALL@$" "${small}")
  execute_process(COMMAND ${DIFCTL} ${args}
                  RESULT_VARIABLE code OUTPUT_FILE ${stdout} ERROR_QUIET)
  set(expected_code FALSE)
  if(code EQUAL 0 OR code EQUAL 3)
    set(expected_code TRUE)
  elseif(code EQUAL 1 AND name IN_LIST pins_violations)
    set(expected_code TRUE)
  endif()
  if(NOT expected_code OR NOT EXISTS ${out})
    message(FATAL_ERROR "difctl ${args} failed (exit ${code})")
  endif()
  file(SHA256 ${out} got)
  if(NOT got STREQUAL want)
    list(APPEND mismatched "${name}: want ${want}, got ${got} (${out})")
  endif()
  math(EXPR checked "${checked} + 1")
endforeach()

if(NOT checked EQUAL expected_reports)
  message(FATAL_ERROR
          "expected ${expected_reports} golden reports, found ${checked}")
endif()
if(mismatched)
  string(REPLACE ";" "\n  " mismatched "${mismatched}")
  message(FATAL_ERROR "report digests differ from the golden:\n  ${mismatched}")
endif()
