# CTest script: exercises the cnaudit CLI end to end
# (simulate -> export -> audit/ppe/neutrality/darkfee on the export).
if(NOT DEFINED CNAUDIT)
  message(FATAL_ERROR "pass -DCNAUDIT=<path>")
endif()

set(workdir "${CMAKE_CURRENT_BINARY_DIR}/cnaudit_cli_test")
file(REMOVE_RECURSE "${workdir}")

execute_process(
  COMMAND "${CNAUDIT}" simulate --dataset A --seed 11 --scale 0.1 --out "${workdir}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate failed (${rc}): ${out}${err}")
endif()

# The "loaded ... from <path>" banner names the input path, so it is
# stripped before any byte comparison; everything below it must match.
function(strip_loaded_banner report out_var)
  string(REGEX REPLACE "^loaded [^\n]*\n" "" report "${report}")
  set("${out_var}" "${report}" PARENT_SCOPE)
endfunction()

# The single-detector subcommands print pinned bytes on this export: the
# SHA-256 of each one's stdout below the banner.
set(pinned_audit "43966ec70288ac1c51c67b1fb7299d21429a1338422b4ef4982fc2b07e8bcd6d")
set(pinned_ppe "c936c56482097193f5b7ed515f7c360fc12e704c0674bd079b1eab66724cf752")
set(pinned_neutrality "07de236f33349eaf8eb59ba57027423c092a5ec4963d19afa97f83766d701bd1")
set(pinned_darkfee "aa42a586d15d3e6982394bf252a907a59f56f30141a17a48ef50a4c883c84dae")
foreach(subcommand audit report ppe neutrality darkfee)
  execute_process(
    COMMAND "${CNAUDIT}" ${subcommand} --data "${workdir}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${subcommand} failed (${rc}): ${out}${err}")
  endif()
  string(FIND "${out}" "loaded" found)
  if(NOT found EQUAL 0)
    message(FATAL_ERROR "${subcommand} did not load the export: ${out}")
  endif()
  if(DEFINED pinned_${subcommand})
    strip_loaded_banner("${out}" body)
    string(SHA256 digest "${body}")
    if(NOT digest STREQUAL "${pinned_${subcommand}}")
      message(FATAL_ERROR "${subcommand} output changed (sha256 ${digest}, "
                          "pinned ${pinned_${subcommand}}):\n${body}")
    endif()
  endif()
endforeach()

# Stage selection: a deselected stage must be visibly [SKIPPED], and an
# unknown stage name must be rejected.
execute_process(
  COMMAND "${CNAUDIT}" report --data "${workdir}" --stages norm-stats,darkfee
          --timings on
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report --stages failed (${rc}): ${out}${err}")
endif()
string(FIND "${out}" "[SKIPPED]" found)
if(found EQUAL -1)
  message(FATAL_ERROR "report --stages printed no [SKIPPED] marker: ${out}")
endif()
string(FIND "${out}" "stage timings" found)
if(found EQUAL -1)
  message(FATAL_ERROR "report --timings on printed no stage-timings footer: ${out}")
endif()
execute_process(
  COMMAND "${CNAUDIT}" report --data "${workdir}" --stages frobnicate
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown --stages name unexpectedly succeeded")
endif()
string(FIND "${err}" "unknown stage" found)
if(found EQUAL -1)
  message(FATAL_ERROR "unknown stage error missing: ${err}")
endif()

# darkfee --pool must name a pool some block is attributed to; an
# unknown one is rejected (exit 2) with the attributed pools listed.
execute_process(
  COMMAND "${CNAUDIT}" darkfee --data "${workdir}" --pool Frobnicate
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "darkfee --pool Frobnicate exited ${rc}, want 2: ${err}")
endif()
string(FIND "${err}" "'Frobnicate' (attributed: " found)
string(FIND "${err}" "BTC.com" listed)
if(found EQUAL -1 OR listed EQUAL -1)
  message(FATAL_ERROR "darkfee --pool Frobnicate did not list the attributed pools: ${err}")
endif()

# Unknown command must fail with usage.
execute_process(COMMAND "${CNAUDIT}" frobnicate RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown command unexpectedly succeeded")
endif()

# An option the subcommand does not read must be rejected by name (exit
# 2), not silently dropped: two removed options and a typo.
function(expect_rejected_option option)
  execute_process(COMMAND "${CNAUDIT}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "cnaudit ${ARGN} exited ${rc}, want 2")
  endif()
  string(FIND "${err}" "does not take ${option}\n" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "cnaudit ${ARGN} did not name ${option}: ${err}")
  endif()
endfunction()
expect_rejected_option(--threads simulate --dataset A --threads 0 --out "${workdir}_threads")
expect_rejected_option(--thread report --data "${workdir}" --thread 4)
expect_rejected_option(--engine report --data "${workdir}" --engine legacy)
if(EXISTS "${workdir}_threads")
  message(FATAL_ERROR "simulate ran despite the rejected --threads")
endif()

# A numeric value that does not parse whole is rejected by name (exit 2),
# not read as the number strtoull/strtod could make of it.
function(expect_bad_number option)
  execute_process(COMMAND "${CNAUDIT}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${option} '" found)
  if(NOT rc EQUAL 2 OR found EQUAL -1)
    message(FATAL_ERROR "cnaudit ${ARGN} exited ${rc}, want 2 naming ${option}: ${err}")
  endif()
endfunction()
expect_bad_number(--seed simulate --dataset A --seed abc --out "${workdir}_seed")
expect_bad_number(--alpha report --data "${workdir}" --alpha 0.001x)
# A lane count above 256 is rejected: the thread pool would spawn every
# lane as a thread up front.
expect_bad_number(--threads report --data "${workdir}" --threads 257)
# A scale must be positive and a timeout non-negative (0 = no limit).
expect_bad_number(--scale simulate --dataset A --scale -1 --out "${workdir}_seed")
expect_bad_number(--scale simulate --dataset A --scale 0 --out "${workdir}_seed")
expect_bad_number(--timeout-s simulate --dataset A --timeout-s -3 --out "${workdir}_seed")
if(EXISTS "${workdir}_seed")
  message(FATAL_ERROR "simulate ran despite a rejected number")
endif()

# The global observability options stay valid on every subcommand.
set(metrics "${workdir}_metrics.json")
execute_process(
  COMMAND "${CNAUDIT}" ppe --data "${workdir}" --obs on --metrics-out "${metrics}"
          --trace-out "${metrics}.trace"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS "${metrics}" OR NOT EXISTS "${metrics}.trace")
  message(FATAL_ERROR "ppe with the global options failed (${rc}): ${out}${err}")
endif()
file(REMOVE "${metrics}" "${metrics}.trace")

# simulate's trace covers the engine run and the export.
set(sim_out "${workdir}_traced")
execute_process(
  COMMAND "${CNAUDIT}" simulate --dataset A --seed 11 --scale 0.05 --out "${sim_out}"
          --metrics-out "${metrics}" --trace-out "${metrics}.trace"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS "${metrics}.trace")
  message(FATAL_ERROR "simulate --metrics-out failed (${rc}): ${out}${err}")
endif()
file(READ "${metrics}.trace" trace)
foreach(span sim.run io.export_chain)
  string(FIND "${trace}" "\"${span}\"" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "simulate trace has no ${span} span: ${trace}")
  endif()
endforeach()
file(REMOVE "${metrics}" "${metrics}.trace")
file(REMOVE_RECURSE "${sim_out}")

# CNB1 conversion round trip: CSV -> cnb -> CSV, with the audit reading
# identical report bytes from all three sources via the unified --input.
if(DEFINED CNCONVERT)
  set(cnb "${workdir}.cnb")
  set(csv2 "${workdir}_from_cnb")
  file(REMOVE "${cnb}")
  file(REMOVE_RECURSE "${csv2}")
  execute_process(
    COMMAND "${CNCONVERT}" --input "${workdir}" --output "${cnb}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cnconvert csv->cnb failed (${rc}): ${out}${err}")
  endif()
  execute_process(
    COMMAND "${CNAUDIT}" report --input "${workdir}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE csv_report ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report --input csv failed (${rc}): ${err}")
  endif()
  strip_loaded_banner("${csv_report}" csv_report)
  execute_process(
    COMMAND "${CNAUDIT}" report --input "${cnb}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE cnb_report ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report --input cnb failed (${rc}): ${err}")
  endif()
  strip_loaded_banner("${cnb_report}" cnb_report)
  if(NOT cnb_report STREQUAL csv_report)
    message(FATAL_ERROR "CNB1 report diverged from the CSV report:\n--- csv ---\n${csv_report}\n--- cnb ---\n${cnb_report}")
  endif()
  execute_process(
    COMMAND "${CNCONVERT}" --input "${cnb}" --output "${csv2}" --format csv
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cnconvert cnb->csv failed (${rc}): ${out}${err}")
  endif()
  execute_process(
    COMMAND "${CNAUDIT}" report --input "${csv2}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE csv2_report ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report --input converted-csv failed (${rc}): ${err}")
  endif()
  strip_loaded_banner("${csv2_report}" csv2_report)
  if(NOT csv2_report STREQUAL csv_report)
    message(FATAL_ERROR "round-tripped CSV report diverged from the original")
  endif()
  file(REMOVE "${cnb}")
  file(REMOVE_RECURSE "${csv2}")

  # A count that does not parse whole or exceeds 256 lanes, or an option
  # cnconvert does not know, exits 2 naming it before anything is written.
  foreach(bad "--threads;abc" "--threads;257" "--bogus;1")
    execute_process(
      COMMAND "${CNCONVERT}" --input "${workdir}" --output "${cnb}" ${bad}
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    list(GET bad 0 option)
    string(FIND "${err}" "${option}" named)
    if(NOT rc EQUAL 2 OR named EQUAL -1 OR EXISTS "${cnb}")
      message(FATAL_ERROR "cnconvert ${bad} exited ${rc}, want 2 naming ${option} "
                          "and no output: ${err}")
    endif()
  endforeach()
endif()

# Fault-injection round trip: corrupt the export, then lenient import
# must still produce a report while strict import must refuse it.
if(DEFINED CNINJECT)
  set(dirty "${workdir}_dirty")
  file(REMOVE_RECURSE "${dirty}")
  execute_process(
    COMMAND "${CNINJECT}" --in "${workdir}" --out "${dirty}"
            --seed 7 --rate 0.02 --kinds corrupt --gaps 1
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cninject failed (${rc}): ${out}${err}")
  endif()
  string(FIND "${out}" "corrupt-field" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "cninject injected no corrupt-field faults: ${out}")
  endif()

  execute_process(
    COMMAND "${CNAUDIT}" report --data "${dirty}" --policy lenient
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lenient report on dirty data failed (${rc}): ${out}${err}")
  endif()
  string(FIND "${out}" "data quality" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "lenient report printed no data-quality line: ${out}")
  endif()

  execute_process(
    COMMAND "${CNAUDIT}" report --data "${dirty}" --policy strict
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "strict report on dirty data unexpectedly succeeded")
  endif()
  string(FIND "${err}" "first:" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "strict failure did not pinpoint a defect: ${err}")
  endif()
  file(REMOVE_RECURSE "${dirty}")

  # Malformed numbers, out-of-range values and unknown options exit 2
  # before anything is written: no seed 0 from "abc", no rate outside
  # [0, 1], no wrapped --gaps, no --truncate other than 0 or 1.
  foreach(bad "--seed;abc" "--rate;2.5" "--rate;x" "--gaps;-1" "--truncate;yes"
              "--bogus;3")
    execute_process(
      COMMAND "${CNINJECT}" --in "${workdir}" --out "${dirty}" ${bad}
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR EXISTS "${dirty}")
      message(FATAL_ERROR "cninject ${bad} exited ${rc}, want 2 and no output: ${err}")
    endif()
  endforeach()
endif()

# cnsweep: a --jobs above 256 lanes or an unknown option exits 2 naming
# it, before any world or bench output is made.
if(DEFINED CNSWEEP)
  set(sweepdir "${workdir}_sweep")
  file(REMOVE_RECURSE "${sweepdir}")
  file(MAKE_DIRECTORY "${sweepdir}")
  foreach(bad "--jobs;257" "--bogus;1")
    execute_process(
      COMMAND "${CNSWEEP}" --smoke ${bad}
      WORKING_DIRECTORY "${sweepdir}"
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    list(GET bad 0 option)
    string(FIND "${err}" "${option}" named)
    if(NOT rc EQUAL 2 OR named EQUAL -1 OR EXISTS "${sweepdir}/bench_out")
      message(FATAL_ERROR "cnsweep ${bad} exited ${rc}, want 2 naming ${option} "
                          "and no output: ${err}")
    endif()
  endforeach()
  file(REMOVE_RECURSE "${sweepdir}")
endif()

file(REMOVE_RECURSE "${workdir}")
