# Runs `pietql_lint [MODE]` over every tests/lint_corpus/*.lint case and
# byte-compares its output with GOLDEN, so a change to the findings, the
# estimates or the fix-its shows up as a test failure rather than a silent
# drift. MODE is one pietql_lint flag (--fix, --estimate) or empty for the
# plain findings text.
#
#   cmake -DLINT=<pietql_lint> -DMODE=<flag or empty> -DSOURCE_DIR=<repo root>
#         -DGOLDEN=<golden file under SOURCE_DIR> -DOUT=<actual file>
#         -P tests/lint_golden.cmake
#
# On a mismatch the actual output is left in OUT for diffing. A deliberate
# change regenerates GOLDEN with the same command line, run from the root.
file(GLOB cases RELATIVE "${SOURCE_DIR}" "${SOURCE_DIR}/tests/lint_corpus/*.lint")
list(SORT cases)
execute_process(
  COMMAND "${LINT}" ${MODE} ${cases}
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "pietql_lint ${MODE} exited with ${status}:\n${actual}")
endif()
file(READ "${SOURCE_DIR}/${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${OUT}" "${actual}")
  message(FATAL_ERROR "pietql_lint ${MODE} output differs from ${GOLDEN}; "
                      "actual output: ${OUT}")
endif()
