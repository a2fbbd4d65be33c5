from .cli import main_exit

main_exit()
