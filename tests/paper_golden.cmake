# Runs each paper-figure harness in a fresh WORK_DIR and byte-compares its
# stdout with GOLDEN_DIR/<harness>.stdout, then compares the fig5a.dot and
# fig5b.dot it wrote with the committed copies in REPO_DIR. Then runs each
# bench in JSON_HARNESSES in the same WORK_DIR and compares the JSONS files
# they wrote with the committed copies in REPO_DIR.
#
#   cmake -DWORK_DIR=... -DGOLDEN_DIR=... -DREPO_DIR=... \
#         "-DHARNESSES=/path/bench_fig5_graph;..." \
#         "-DJSON_HARNESSES=/path/bench_chaos;..." \
#         "-DJSONS=BENCH_chaos.json;..." -P paper_golden.cmake
foreach(var WORK_DIR GOLDEN_DIR REPO_DIR HARNESSES JSON_HARNESSES JSONS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_golden: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
find_program(DIFF diff)

function(expect_same got want)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${got} ${want}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "paper_golden: ${got} differs from ${want}")
    if(DIFF)
      execute_process(COMMAND ${DIFF} -u ${want} ${got})
    endif()
  endif()
endfunction()

function(run_harness exe)
  get_filename_component(name ${exe} NAME)
  execute_process(COMMAND ${exe}
                  WORKING_DIRECTORY ${WORK_DIR}
                  OUTPUT_FILE ${WORK_DIR}/${name}.stdout
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "paper_golden: ${name} exited with ${rc}")
  endif()
endfunction()

foreach(exe IN LISTS HARNESSES)
  run_harness(${exe})
  get_filename_component(name ${exe} NAME)
  expect_same(${WORK_DIR}/${name}.stdout ${GOLDEN_DIR}/${name}.stdout)
endforeach()

foreach(exe IN LISTS JSON_HARNESSES)
  run_harness(${exe})
endforeach()

foreach(file IN LISTS JSONS ITEMS fig5a.dot fig5b.dot)
  expect_same(${WORK_DIR}/${file} ${REPO_DIR}/${file})
endforeach()
