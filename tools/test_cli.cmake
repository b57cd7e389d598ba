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

foreach(subcommand audit report ppe neutrality darkfee)
  execute_process(
    COMMAND "${CNAUDIT}" ${subcommand} --data "${workdir}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${subcommand} failed (${rc}): ${out}${err}")
  endif()
  string(FIND "${out}" "loaded" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${subcommand} did not load the export: ${out}")
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

# The legacy oracle engine must render the exact same report bytes.
execute_process(
  COMMAND "${CNAUDIT}" report --data "${workdir}" --engine legacy
  RESULT_VARIABLE rc OUTPUT_VARIABLE legacy_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report --engine legacy failed (${rc}): ${legacy_out}${err}")
endif()
execute_process(
  COMMAND "${CNAUDIT}" report --data "${workdir}" --engine columnar
  RESULT_VARIABLE rc OUTPUT_VARIABLE columnar_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report --engine columnar failed (${rc}): ${columnar_out}${err}")
endif()
if(NOT columnar_out STREQUAL legacy_out)
  message(FATAL_ERROR "legacy and columnar reports diverged:\n--- legacy ---\n${legacy_out}\n--- columnar ---\n${columnar_out}")
endif()

# Unknown command must fail with usage.
execute_process(COMMAND "${CNAUDIT}" frobnicate RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown command unexpectedly succeeded")
endif()

# An option the subcommand does not read must be rejected by name (exit
# 2), not silently dropped: a removed option and a typo.
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
if(EXISTS "${workdir}_threads")
  message(FATAL_ERROR "simulate ran despite the rejected --threads")
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

# CNB1 conversion round trip: CSV -> cnb -> CSV, with the audit reading
# identical report bytes from all three sources via the unified --input.
# The "loaded ... from <path>" banner names the input path, so it is
# stripped before the byte comparison; everything below it must match.
function(strip_loaded_banner report out_var)
  string(REGEX REPLACE "^loaded [^\n]*\n" "" report "${report}")
  set("${out_var}" "${report}" PARENT_SCOPE)
endfunction()
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
endif()

file(REMOVE_RECURSE "${workdir}")
