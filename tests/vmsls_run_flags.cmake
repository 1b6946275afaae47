# vmsls_run's output flags either take effect or are rejected:
#   * --serve with --trace or --telemetry exits 2 and writes no file;
#   * --sweep-seeds 2 with --trace exits 2 and writes no file;
#   * a single run with --trace writes the trace.
# Run as: cmake -DVMSLS_RUN=<path> -DWORK_DIR=<scratch dir> -P vmsls_run_flags.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_run expected_status out_file)
  string(JOIN " " args ${ARGN})
  execute_process(COMMAND "${VMSLS_RUN}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status EQUAL expected_status)
    message(FATAL_ERROR "vmsls_run ${args}: exit ${status}, expected ${expected_status}\n${err}")
  endif()
  if(expected_status EQUAL 0 AND NOT EXISTS "${WORK_DIR}/${out_file}")
    message(FATAL_ERROR "vmsls_run ${args}: exited 0 but wrote no ${out_file}")
  endif()
  if(NOT expected_status EQUAL 0 AND EXISTS "${WORK_DIR}/${out_file}")
    message(FATAL_ERROR "vmsls_run ${args}: rejected but still wrote ${out_file}")
  endif()
endfunction()

set(serve --workload vecadd --n 256 --serve 8 --serve-workers 2)
expect_run(2 serve_trace.json ${serve} --trace serve_trace.json)
expect_run(2 serve_telemetry.csv ${serve} --telemetry serve_telemetry.csv)
expect_run(2 sweep_trace.json --workload vecadd --n 256 --sweep-seeds 2 --trace sweep_trace.json)
expect_run(0 run_trace.json --workload vecadd --n 256 --trace run_trace.json)
