# Runs `pietql_lint --fix` over every tests/lint_corpus/*.lint case and
# byte-compares its output with tests/golden/lint_fix.txt, so a change to
# the fix-its shows up as a test failure rather than a silent drift.
#
#   cmake -DLINT=<pietql_lint> -DSOURCE_DIR=<repo root> -DOUT=<actual file>
#         -P tests/lint_fix_golden.cmake
#
# On a mismatch the actual output is left in OUT for diffing.
file(GLOB cases RELATIVE "${SOURCE_DIR}" "${SOURCE_DIR}/tests/lint_corpus/*.lint")
list(SORT cases)
execute_process(
  COMMAND "${LINT}" --fix ${cases}
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "pietql_lint --fix exited with ${status}:\n${actual}")
endif()
file(READ "${SOURCE_DIR}/tests/golden/lint_fix.txt" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${OUT}" "${actual}")
  message(FATAL_ERROR "pietql_lint --fix output differs from "
                      "tests/golden/lint_fix.txt; actual output: ${OUT}")
endif()
